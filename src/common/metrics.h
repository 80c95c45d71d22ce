// Unified metrics substrate — one process-wide registry of named,
// label-tagged counters, gauges, and histograms that every subsystem
// (cache, trigger monitor, renderer, serving path, HTTP server, fabric,
// ODG, database) registers into at construction.
//
// The paper's §5 evaluation was driven entirely by audited logs and live
// operator monitoring; this module is the reproduction's equivalent spine:
// the same cells back the legacy per-subsystem stats() accessors (thin
// snapshot views), the /metrics·/healthz·/statusz admin surface of the
// HTTP front end, and the figure benches.
//
// Concurrency contract:
//  * Counter is a sharded-atomic monotone counter — hot-path increments
//    touch one cache line per thread shard and never block, and reading is
//    a lock-free sum over the shards.
//  * Gauge is a single atomic double (Set/Add).
//  * Histogram wraps the common log-bucketed nagano::Histogram behind a
//    per-histogram mutex; Observe() happens on cold-ish paths (per batch /
//    per regenerated object), so the mutex is uncontended in practice.
//  * Registration is mutex-guarded get-or-create; the registry owns every
//    cell and never frees it, so subsystems hold raw pointers that stay
//    valid for the life of the process (Default() is deliberately leaked).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace nagano::metrics {

// Label set attached to a metric: sorted-on-registration key/value pairs.
// (name, labels) identifies a cell; two registrations with the same identity
// return the same cell.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing counter, sharded across cache lines so that
// concurrent writers (the trigger, the epoll loop, serving threads) never
// contend. value() is a lock-free relaxed sum — monotone but not a linearized
// point snapshot, which is all monitoring needs.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    cells_[ShardIndex()].v.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t ShardIndex();
  std::array<Cell, kShards> cells_{};
};

// Instantaneous value (cache entries, bytes resident, graph nodes). Add()
// applies a delta so mutation paths can maintain the gauge incrementally.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // CAS loop instead of atomic<double>::fetch_add for toolchain
    // portability.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Thread-safe distribution cell reusing the common log-bucketed Histogram
// as storage. snapshot() returns a plain Histogram copy, which is how the
// legacy TriggerStats view hands histograms back to callers unchanged.
class Histogram {
 public:
  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    h_.Add(value);
  }
  nagano::Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return h_;
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return h_.count();
  }

 private:
  mutable std::mutex mutex_;
  nagano::Histogram h_;
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

// One rendered metric point, as returned by MetricRegistry::Snapshot().
struct Sample {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  std::string help;
  double value = 0.0;           // counters and gauges
  nagano::Histogram histogram;  // histograms only
};

class MetricRegistry {
 public:
  MetricRegistry() = default;

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry every subsystem uses unless handed an
  // explicit one. Leaked on purpose: cells must outlive any static-duration
  // subsystem object.
  static MetricRegistry& Default();

  // Get-or-create. The same (name, labels) always returns the same cell, so
  // components sharing an identity share counts; per-instance uniqueness
  // comes from the instance label (see AutoInstance).
  Counter* GetCounter(std::string_view name, Labels labels = {},
                      std::string_view help = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {},
                  std::string_view help = {});
  Histogram* GetHistogram(std::string_view name, Labels labels = {},
                          std::string_view help = {});

  // "cache" -> "cache1", "cache2", ... — unique within this registry.
  // Subsystems call this when constructed without an explicit instance
  // label, so two caches in one process never alias each other's cells.
  std::string AutoInstance(std::string_view prefix);

  // Point-in-time copy of every registered metric, registration-ordered.
  // Writers are never blocked: counter/gauge reads are lock-free and each
  // histogram is locked only long enough to copy its buckets.
  std::vector<Sample> Snapshot() const;

  // Prometheus text exposition format (version 0.0.4). Histograms render as
  // summaries: quantile-labelled series plus _sum and _count.
  std::string RenderPrometheus() const;

  // Human-readable per-subsystem snapshot for /statusz: metrics grouped by
  // the subsystem segment of their name, histograms as Summary() lines.
  std::string RenderStatusz() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricType type = MetricType::kCounter;
    std::string help;
    // Exactly one of these is non-null, matching `type`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreateLocked(std::string_view name, Labels labels,
                            std::string_view help, MetricType type);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // stable cell addresses
  // (name, type, sorted labels) identity -> entry, for O(log n) get-or-create.
  std::map<std::string, Entry*> index_;
  std::atomic<uint64_t> next_instance_{0};
};

// Scope every instrumented subsystem carries: which registry to register
// into (nullptr => Default()) and the value of the `site` label (empty =>
// auto-assigned via AutoInstance so instances never alias).
struct Options {
  MetricRegistry* registry = nullptr;
  std::string instance;
};

// Resolves Options to a concrete (registry, label set): picks Default() when
// no registry was given and auto-assigns the instance label when empty.
struct Scope {
  MetricRegistry* registry = nullptr;
  Labels labels;  // {{"site", <instance>}}

  static Scope Resolve(const Options& options, std::string_view auto_prefix);

  Counter* GetCounter(std::string_view name, std::string_view help = {}) const {
    return registry->GetCounter(name, labels, help);
  }
  Gauge* GetGauge(std::string_view name, std::string_view help = {}) const {
    return registry->GetGauge(name, labels, help);
  }
  Histogram* GetHistogram(std::string_view name,
                          std::string_view help = {}) const {
    return registry->GetHistogram(name, labels, help);
  }
  // Same scope with extra labels (e.g. per-complex fabric counters).
  Labels With(std::string_view key, std::string_view value) const;
};

}  // namespace nagano::metrics
