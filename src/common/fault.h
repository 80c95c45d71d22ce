// nagano::fault — seed-deterministic fault injection (ISSUE 3 tentpole).
//
// The paper's availability claims (§4.2 "elegant degradation", the §3
// replication recovery path) are only trustworthy if partial failure can be
// provoked on demand. This module makes failure a first-class input: a
// FaultPlan scripts *where* ({subsystem, site, operation}), *when* (a sim-
// or wall-clock window), and *how* (error, extra latency, duplicated
// delivery, or a window outage) faults strike, and a FaultInjector answers
// the per-operation question "does this call fail?" deterministically from
// a single seed.
//
// Injection points wired through the stack (each consults the injector it
// was handed in its Options; a null injector costs one pointer compare):
//
//   subsystem      site                 operations
//   "db"           metrics instance     "commit", "changes"
//   "wal"          metrics instance     "append" (torn-tail crash),
//                                       "fsync", "truncate"
//   "replication"  child node name      "pull", "pull-from:<feed>", "gap"
//   "fabric"       complex name         "complex", "frame:<i>",
//                                       "dispatcher:<i>", "node:<f>.<n>"
//                                       (kWindow outage rules)
//   "trigger"      metrics instance     "notify" (drop / repeat the commit
//                                       wake-up; records are read by cursor)
//   "http"         metrics instance     "accept", "read", "write"
//                  (with reactors > 1 the site is "<instance>/r<k>", one
//                  per reactor, so a drill can kill a single event loop's
//                  sockets; empty-site rules wildcard across all of them)
//   "cache"        metrics instance     "lookup"
//
// Every fire is appended to a timeline (Timeline()/TimelineString()) so
// examples and the chaos suite can print the injected-fault history next to
// the availability numbers, and counted in nagano_fault_injected_total.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/rng.h"

namespace nagano::fault {

enum class FaultKind : uint8_t {
  kError,      // fail the matching operation with `error`
  kDelay,      // slow the matching operation by `delay`
  kDuplicate,  // deliver the operation's effect `duplicates` extra times
  kWindow,     // target is dead while the rule's window is active (queried
               // via ActiveWindow — the fabric kill-schedule mechanism)
};

std::string_view FaultKindName(FaultKind kind);

// One scripted or probabilistic injection rule. Empty subsystem/site/
// operation strings are wildcards. `from`/`until` bound the rule in the
// injector's clock domain (sim time under SimClock); `probability`,
// `skip_first` and `max_fires` script partial failure deterministically.
struct FaultRule {
  std::string subsystem;
  std::string site;
  std::string operation;

  FaultKind kind = FaultKind::kError;
  ErrorCode error = ErrorCode::kUnavailable;
  std::string message;          // optional detail for the injected Status
  TimeNs delay = 0;             // kDelay: extra latency to charge
  uint32_t duplicates = 1;      // kDuplicate: extra deliveries

  TimeNs from = 0;              // active window [from, until)
  TimeNs until = std::numeric_limits<TimeNs>::max();
  double probability = 1.0;     // chance a matching call fires (per call;
                                // kWindow: decided once per window entry)
  uint64_t skip_first = 0;      // matching calls to let through first
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
};

// The full injection schedule: seed + rules. Immutable once handed to a
// FaultInjector.
struct FaultPlan : OptionsBase {
  uint64_t seed = 0x6e6167616e6fULL;  // "nagano"
  std::vector<FaultRule> rules;
  metrics::Options metrics;

  Status Validate() const;
};

// One injected fault, in fire order — the timeline the drills print.
struct FaultEvent {
  TimeNs at = 0;
  std::string subsystem;
  std::string site;
  std::string operation;
  FaultKind kind = FaultKind::kError;
  ErrorCode error = ErrorCode::kOk;
  TimeNs delay = 0;
  bool onset = true;  // kWindow rules log both edges; onset=false is recovery
};

// What a single Decide() resolved to. status.ok() means the operation
// proceeds; delay and duplicates may still apply.
struct FaultAction {
  Status status;
  TimeNs delay = 0;
  uint32_t duplicates = 0;

  bool injected() const {
    return !status.ok() || delay > 0 || duplicates > 0;
  }
};

// Thread-safe. Decisions are deterministic given the plan's seed and, per
// injection site, the order of calls against it (single-driver simulations
// replay byte-identically).
class FaultInjector {
 public:
  // `clock` times the rule windows and the timeline (nullptr = RealClock).
  explicit FaultInjector(FaultPlan plan, const Clock* clock = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Resolves every matching kError/kDelay/kDuplicate rule for one call of
  // {subsystem, site, operation}. The first firing error rule wins; delays
  // and duplicates accumulate across firing rules.
  FaultAction Decide(std::string_view subsystem, std::string_view site,
                     std::string_view operation);

  // Convenience: just the error half of Decide().
  Status Check(std::string_view subsystem, std::string_view site,
               std::string_view operation) {
    return Decide(subsystem, site, operation).status;
  }

  // True while any matching kWindow rule is active at the injector clock's
  // now. Both edges of each rule's activity are recorded on the timeline.
  bool ActiveWindow(std::string_view subsystem, std::string_view site,
                    std::string_view operation);

  // Window rules matching `subsystem` — components (the fabric) use this to
  // precompute which targets their plan can ever touch.
  std::vector<const FaultRule*> WindowRules(std::string_view subsystem) const;

  std::vector<FaultEvent> Timeline() const;
  // "  t=  12.000s fabric/Tokyo/complex WINDOW begin" — one line per event.
  std::string TimelineString() const;

  uint64_t injected_total() const { return injected_->value(); }
  const FaultPlan& plan() const { return plan_; }

 private:
  struct RuleState {
    uint64_t matched = 0;     // calls that matched this rule
    uint64_t fired = 0;
    Rng rng;                  // per-rule stream: thread interleavings of
                              // *other* sites cannot perturb this rule
    bool window_active = false;
    bool window_decided = false;  // probability roll done for this entry
    bool window_fires = false;
  };

  bool Matches(const FaultRule& rule, std::string_view subsystem,
               std::string_view site, std::string_view operation) const;
  void Record(const FaultRule& rule, TimeNs now, bool onset)
      /* REQUIRES(mutex_) */;

  const FaultPlan plan_;
  const Clock* clock_;
  mutable std::mutex mutex_;
  std::vector<RuleState> states_;
  std::vector<FaultEvent> timeline_;
  metrics::Counter* injected_;
};

// Null-safe wrappers: subsystems hold a FaultInjector* that is almost
// always null in production; these keep the hot-path cost to one compare.
inline FaultAction Decide(FaultInjector* injector, std::string_view subsystem,
                          std::string_view site, std::string_view operation) {
  if (injector == nullptr) return FaultAction{};
  return injector->Decide(subsystem, site, operation);
}
inline Status Check(FaultInjector* injector, std::string_view subsystem,
                    std::string_view site, std::string_view operation) {
  if (injector == nullptr) return Status::Ok();
  return injector->Check(subsystem, site, operation);
}
inline bool ActiveWindow(FaultInjector* injector, std::string_view subsystem,
                         std::string_view site, std::string_view operation) {
  return injector != nullptr &&
         injector->ActiveWindow(subsystem, site, operation);
}

}  // namespace nagano::fault
