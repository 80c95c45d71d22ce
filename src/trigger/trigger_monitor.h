// The trigger monitor (paper §2, Fig. 6).
//
// "A component known as the trigger monitor is responsible for monitoring
// databases and notifying the cache when changes to the databases occur."
//
// This implementation tails the database change log by cursor, reads
// committed changes in batches, maps each change to the underlying-data
// ODG vertices it touched (via a pluggable ChangeMapper — the Olympic
// mapper lives in pagegen/olympic.h), runs DUP to find the affected cached
// objects, and applies a consistency policy:
//
//   kDupUpdateInPlace  — 1998 Nagano: regenerate each affected object and
//                        store it back, so hot pages never miss;
//   kDupInvalidate     — precise invalidation: drop exactly the affected set;
//   kConservative1996  — 1996 Atlanta baseline: invalidate configured page
//                        prefixes per changed table (a large superset);
//   kNone              — no maintenance (staleness baseline).
//
// All regeneration happens on the monitor's own tail thread — the paper ran
// updates "on different processors from the ones serving pages" so update
// bursts would not hurt response times.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/stats.h"
#include "db/database.h"
#include "odg/dup.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"

namespace nagano::trigger {

enum class CachePolicy {
  kDupUpdateInPlace,
  kDupInvalidate,
  kConservative1996,
  kNone,
};

struct TriggerOptions : OptionsBase {
  CachePolicy policy = CachePolicy::kDupUpdateInPlace;

  // Must be 1; Validate() rejects any other value. The tail thread renders
  // every update itself. The field stays only because perfbench assigns it.
  size_t worker_threads = 1;

  // Read up to this many change records per DUP run, rounded up to the end
  // of a commit (a commit is never split across runs).
  size_t batch_max = 64;

  // Passed through to the DUP engine.
  double obsolescence_threshold = 0.0;
  bool enable_simple_fast_path = true;

  // kConservative1996: table name -> cache-key prefixes to bulk-invalidate
  // when any row of that table changes. Empty map = invalidate everything.
  std::map<std::string, std::vector<std::string>> conservative_prefixes;

  // Clock for batching latencies and propagation stamps. nullptr =
  // RealClock.
  const Clock* clock = nullptr;

  // Consulted per commit wake-up ({"trigger", <instance>, "notify"}):
  // kError drops the wake-up (the change waits for the next one, a
  // Quiesce() or the tail's poll timeout); kDuplicate rings it again.
  fault::FaultInjector* faults = nullptr;

  // Registry + instance label for the nagano_trigger_* metrics.
  metrics::Options metrics;

  Status Validate() const;
};

// Default 1996-style mapping for the Olympic site: any scoring change blows
// away every results-bearing page family.
std::map<std::string, std::vector<std::string>> OlympicConservativePrefixes();

struct TriggerStats {
  uint64_t changes_processed = 0;
  uint64_t batches = 0;
  uint64_t dup_runs = 0;
  uint64_t objects_updated = 0;      // update-in-place count
  uint64_t objects_invalidated = 0;
  uint64_t objects_skipped = 0;      // affected but uncached (regenerate on demand)
  uint64_t render_failures = 0;
  // Composition plans refreshed by fragment swap instead of a page
  // re-render (the fragment-first DUP fast path).
  uint64_t plans_patched = 0;
  // Total bytes produced by update-in-place re-renders (registry name
  // nagano_dup_rerendered_bytes_total). A patched plan contributes nothing
  // — only the re-rendered fragment's bytes count — so this is the
  // fragment-vs-whole-page fanout cost the update bench gates on.
  uint64_t rerendered_bytes = 0;
  // --- fault-path counters ------------------------------------------------
  uint64_t notifications_dropped = 0;  // injected drops (lost wake-ups)
  uint64_t duplicates_injected = 0;    // injected extra wake-ups
  // --- pipeline stage counters --------------------------------------------
  uint64_t changes_coalesced = 0;    // changes that rode along in a multi-change batch
  uint64_t renders_attempted = 0;    // regenerations tried (updated + failed)
  Histogram update_latency_ms;       // commit -> cache consistent, per batch
  Histogram fanout;                  // affected objects per batch
  Histogram fanout_bytes;            // bytes re-rendered per batch/commit
  Histogram batch_apply_ms;          // regenerate + distribute time per batch
  // Commit -> cache-visible, per affected object (registry name
  // nagano_dup_propagation_latency_ms). Finer-grained than
  // update_latency_ms: each object is stamped the moment its fresh body
  // (or its removal) becomes visible to readers, not at batch end.
  Histogram propagation_latency_ms;
};

class TriggerMonitor {
 public:
  // Names the underlying-data vertices a change touched.
  using ChangeMapper =
      std::function<std::vector<std::string>(const db::ChangeRecord&)>;

  TriggerMonitor(db::Database* db, odg::ObjectDependenceGraph* graph,
                 cache::ObjectCache* cache, pagegen::PageRenderer* renderer,
                 ChangeMapper mapper, TriggerOptions options = {});
  ~TriggerMonitor();

  TriggerMonitor(const TriggerMonitor&) = delete;
  TriggerMonitor& operator=(const TriggerMonitor&) = delete;

  // Installs the database's commit wake-up and starts the tail thread. The
  // first Start() places the cursor at AppliedCursor(), so the changes
  // already in the log (the site build) are not replayed; a Start() after
  // Stop() resumes from where the tail stopped.
  void Start();

  // Removes the wake-up, processes every change committed before the call,
  // then joins the tail thread. A failed log read ends the drain early;
  // the unread changes stay in the log for the next Start(). Idempotent.
  void Stop();

  // Blocks until every change committed before the call has been fully
  // processed (its cache effects applied), or the tail stopped. The
  // consistency property tests are phrased against this barrier.
  void Quiesce();

  // True between Start() and Stop() — the /healthz "trigger running" probe.
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Changes committed but not yet applied to the cache: the records between
  // the tail's cursor and AppliedCursor(). A bounded backlog is the paper's
  // ≤60 s freshness guarantee in queue form.
  uint64_t backlog() const;

  TriggerStats stats() const;

 private:
  // The commit wake-up, passed through the {"trigger", <instance>,
  // "notify"} fault site.
  void OnCommitWakeup();
  // Reads the log past cursor_ in pages of about batch_max records, whole
  // commits each, and applies them,
  // waiting for a wake-up whenever it has caught up.
  void TailLoop();
  // Records truncated by retention before the tail read them are lost for
  // good: move past them and drop the whole cache, so every page
  // regenerates from current data instead of serving stale bytes.
  void SkipGap(const std::vector<uint32_t>& gap_shards,
               db::ChangeCursor& cursor);
  void ProcessBatch(const std::vector<db::ChangeRecord>& batch);
  // `oldest_commit` is the earliest committed_at in the batch; the apply
  // paths stamp each object's commit -> cache-visible propagation latency
  // against it.
  void ApplyUpdateInPlace(const odg::DupResult& dup, TimeNs oldest_commit);
  void ApplyInvalidate(const odg::DupResult& dup, TimeNs oldest_commit);
  void ApplyConservative(const std::vector<db::ChangeRecord>& batch);

  db::Database* db_;
  odg::ObjectDependenceGraph* graph_;
  cache::ObjectCache* cache_;
  pagegen::PageRenderer* renderer_;
  ChangeMapper mapper_;
  TriggerOptions options_;
  const Clock* clock_;
  fault::FaultInjector* faults_;
  std::string instance_;  // fault-injection site name (== metrics label)

  std::thread tail_;
  std::atomic<bool> running_{false};

  mutable std::mutex mutex_;             // guards the fields below
  std::condition_variable wake_cv_;      // the tail waits here
  std::condition_variable progress_cv_;  // Quiesce() waits here
  bool woken_ = false;
  bool tailing_ = false;  // the tail thread is running
  // Set by Stop(): the tail exits once cursor_ covers it.
  std::optional<db::ChangeCursor> stop_at_;
  // Last change applied, per shard; empty until the first Start(). Written
  // only by Start() and the tail thread.
  db::ChangeCursor cursor_;

  // Registry cells; the legacy TriggerStats view in stats() is assembled
  // from these (histograms via snapshot()).
  metrics::Counter* changes_processed_;
  metrics::Counter* batches_;
  metrics::Counter* dup_runs_;
  metrics::Counter* objects_updated_;
  metrics::Counter* objects_invalidated_;
  metrics::Counter* objects_skipped_;
  metrics::Counter* render_failures_;
  metrics::Counter* plans_patched_;
  metrics::Counter* rerendered_bytes_;
  metrics::Counter* changes_coalesced_;
  metrics::Counter* renders_attempted_;
  metrics::Counter* notifications_dropped_;
  metrics::Counter* duplicates_injected_;
  metrics::Histogram* update_latency_ms_;
  metrics::Histogram* fanout_;
  metrics::Histogram* fanout_bytes_;
  metrics::Histogram* batch_apply_ms_;
  // Commit -> cache-visible latency per affected object, the paper's ≤60 s
  // freshness bound made measurable.
  metrics::Histogram* propagation_latency_ms_;
};

}  // namespace nagano::trigger
