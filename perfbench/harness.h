// Benchmark-side building blocks that hold no topology: exact percentiles
// over raw samples, fixed-size samples and per-window figures, an
// in-memory span log with self-time arithmetic, the
// seeded input generator, and process probes (peak RSS, thread CPU time,
// a fixed-work calibration loop). Kept apart from bench.cpp so
// harness_test.cpp can check them without starting a server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/object_cache.h"
#include "common/rng.h"
#include "pagegen/olympic.h"
#include "workload/feed.h"

namespace perfbench {

// The site every workload serves: the full Olympic configuration of
// bench/update_latency.cpp (1780 cached objects once prefetched).
nagano::pagegen::OlympicConfig FullSite();

// --- percentiles -------------------------------------------------------------

// Percentile q in [0, 1] of raw samples by linear interpolation between the
// two closest ranks (the "inclusive" method: q = 0 is the minimum, q = 1 the
// maximum). Exact for any magnitude, sub-unit values included. Reorders
// `samples`. 0 for an empty vector.
double Percentile(std::span<double> samples, double q);

// Median of a copy of `values` (convenience for small per-episode vectors).
double Median(std::vector<double> values);

// A uniform sample of at most `capacity` of the values added (Vitter's
// algorithm R), in memory sized and touched at construction: exact while
// no more than `capacity` values were added. Keeps the load generator's
// resident size independent of throughput. Not thread-safe.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);

  void Add(double value);
  // Empties the sample; keeps its memory.
  void Clear();
  // Percentile q of the sample (reorders it; see Percentile above).
  double Quantile(double q);
  // Values added since construction or the last Clear().
  uint64_t seen() const { return seen_; }

 private:
  std::vector<double> sample_;  // capacity slots, the first size_ in use
  size_t size_ = 0;
  uint64_t seen_ = 0;
  nagano::Rng rng_;
};

// Figures of one measuring interval, computed as operations complete.
// [begin_ns, begin_ns + windows * window_ns) is cut into `windows` windows;
// each window's completion rate and latency p50 (ms; from a Reservoir of
// `window_capacity`; windows without completions get none) are kept, and
// every completion from begin_ns on also goes into one Reservoir of
// `capacity` for the interval's percentiles. The rate is completions per
// second of the window's own time: its length minus what `stolen_ns` (a
// running total, ns; empty = none) grew by until the window was closed.
// Memory is fixed at construction. Thread-safe.
class WindowMeter {
 public:
  WindowMeter(int64_t begin_ns, int64_t window_ns, size_t windows,
              size_t window_capacity, size_t capacity, uint64_t seed,
              std::function<int64_t()> stolen_ns = {});

  void Add(int64_t done_ns, double latency_ms);
  // Closes every window that ended by `end_ns` and drops the partial one;
  // later completions count only toward Quantile().
  void Finish(int64_t end_ns);

  const std::vector<double>& rates() const { return rates_; }
  const std::vector<double>& p50s() const { return p50s_; }
  // Percentile q of every completion's latency (sampled beyond capacity).
  double Quantile(double q);

 private:
  // Closes the open window and every empty one before window `next`.
  void CloseUntil(size_t next);

  std::mutex mu_;
  const int64_t begin_ns_;
  const int64_t window_ns_;
  const std::function<int64_t()> stolen_ns_;
  int64_t stolen_mark_ = 0;  // stolen_ns_() when the open window opened
  size_t windows_;
  size_t open_ = 0;  // index of the window taking completions
  Reservoir current_;
  Reservoir all_;
  std::vector<double> rates_;
  std::vector<double> p50s_;
};

// Holds reads and feed updates to a fixed mix: update k (from 0) starts once
// (k + 1) * reads_per_update reads are done, and a read may start only while
// fewer than (updates done + slack) * reads_per_update reads were started.
// Whatever speed the host or the code runs at, the same reads come with the
// same updates, so a window's read rate prices both paths together. `slack`
// (>= 1) lets the readers run ahead of a slow update (an fsync) instead of
// idling the CPU. Thread-safe; the fast paths are lock-free.
class MixGate {
 public:
  MixGate(uint64_t reads_per_update, uint64_t slack);

  // Reader side. Returns false once the gate is stopped.
  bool BeforeRead();
  void ReadDone();
  // Feed side: blocks until update `k` may start; false once stopped.
  bool BeforeUpdate(uint64_t k);
  void UpdateDone();
  // Releases every waiter and makes every later call return false.
  void Stop();

  uint64_t reads_done() const { return reads_done_.load(); }
  uint64_t updates_done() const { return updates_done_.load(); }

 private:
  const uint64_t per_update_;
  const uint64_t slack_;
  std::atomic<uint64_t> reads_started_{0};
  std::atomic<uint64_t> reads_done_{0};
  std::atomic<uint64_t> updates_done_{0};
  std::atomic<uint64_t> reads_allowed_;
  // Reads the feed waits for; UINT64_MAX while it is not waiting.
  std::atomic<uint64_t> feed_target_{UINT64_MAX};
  std::atomic<bool> stopped_{false};
  std::mutex mu_;
  std::condition_variable readers_cv_;
  std::condition_variable feed_cv_;
};

// --- spans -------------------------------------------------------------------

// One timed call into a layer. Spans of one operation share `trace`;
// `parent` is the index in the log of the span that caused it, or -1.
struct Span {
  uint32_t name = 0;  // index into the log's span names
  uint64_t trace = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Append-only span log, one per recording thread; merged and written out
// when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(std::vector<std::string> names) : names_(std::move(names)) {}

  // Opens a span and returns its index; Close() stamps the end.
  int64_t Open(uint32_t name, uint64_t trace, int64_t parent = -1);
  void Close(int64_t index);
  void Add(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }

  // Appends this log's spans to `out`, one JSON object per line.
  void WriteJsonLines(std::string* out) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Self times of a chain of nested depths, outermost first: depth i's self
// time is its time minus depth i+1's; the innermost keeps its whole time.
// Used for reads, where the same page is timed at each entry point
// (dispatcher, backend HTTP, in-process serve, cache lookup): each deeper
// call is a part of the one above it, made again on its own.
std::vector<double> DepthSelfTimes(const std::vector<double>& depth_times);

// --- seeded inputs -----------------------------------------------------------

// `count` page names drawn by workload::PageSampler (its default mix, Zipf
// 1.1 within each category) with `day` as the current games day. Same seed,
// same sequence. `sample_ns`, when set, receives the mean draw time.
std::vector<std::string> MakeReadSequence(uint64_t seed, size_t count, int day,
                                          double* sample_ns = nullptr);

// The whole 16-day workload::ResultFeed schedule (default FeedOptions),
// days in order. Same seed, same schedule. `day_starts`, when set, receives
// the index of each day's first update (day d at [d - 1]).
std::vector<nagano::workload::FeedUpdate> MakeFeedSchedule(
    uint64_t seed, std::vector<size_t>* day_starts = nullptr);

// FNV-1a over the key-ordered contents (key and full entity bytes) of a
// cache. Two caches holding byte-identical pages digest equal.
uint64_t CacheDigest(const nagano::cache::ObjectCache& cache, size_t* entries);

// --- process probes ----------------------------------------------------------

int64_t NowNs();
// CPU time consumed by the calling thread, ns.
int64_t ThreadCpuNs();
// CPU time consumed by the whole process, ns.
int64_t ProcessCpuNs();
// Returns freed heap to the OS and restarts the kernel's peak-RSS record
// (VmHWM), so the next PeakRssMb() covers only what runs after this call.
void ResetPeakRss();
// Peak resident set of this process (load generator included) since start
// or the last ResetPeakRss(), MB.
double PeakRssMb();
// Time of one CPU from /proc/stat, ns: all states, and the part stolen by
// the hypervisor (the CPU had work, the host ran another tenant instead).
// Kept in clock ticks (10 ms) by the kernel, so a difference of two
// readings is off by up to a tick. Zero when the host does not report it.
struct CpuTime {
  int64_t total_ns = 0;
  int64_t stolen_ns = 0;
};
CpuTime ReadCpuTime(int cpu);
// Share of the CPU's time stolen between two readings (0 when unknown).
double StealShare(const CpuTime& before, const CpuTime& after);

// Wall time since construction minus the time stolen from `cpu` meanwhile:
// how long the program had the CPU it is pinned to. A tenant on the same
// host can take 10-20% of that CPU for minutes at a time, which would
// otherwise read as the program getting slower.
class OwnTimer {
 public:
  explicit OwnTimer(int cpu)
      : cpu_(cpu), wall0_(NowNs()), stolen0_(ReadCpuTime(cpu).stolen_ns) {}
  double ElapsedS() const;

 private:
  int cpu_;
  int64_t wall0_;
  int64_t stolen0_;
};
// Median wall time (ms) of a fixed integer-hash loop: a host-speed probe
// printed beside each run's metrics, never gated.
double CalibrationMs();

}  // namespace perfbench
