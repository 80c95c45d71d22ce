#include "harness.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "db/database.h"
#include "workload/sampler.h"

namespace perfbench {

using nagano::workload::FeedUpdate;

nagano::pagegen::OlympicConfig FullSite() {
  nagano::pagegen::OlympicConfig config;
  config.days = 16;
  config.num_sports = 10;
  config.events_per_sport = 12;
  config.athletes_per_event = 25;
  config.num_countries = 30;
  config.initial_news_articles = 40;
  return config;
}

double Percentile(std::span<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(lo),
                   samples.end());
  const double low = samples[lo];
  if (frac == 0.0 || lo + 1 >= samples.size()) return low;
  // The next rank is the smallest element above position lo.
  const double high =
      *std::min_element(samples.begin() + static_cast<long>(lo) + 1,
                        samples.end());
  return low + frac * (high - low);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : sample_(capacity), rng_(seed) {}  // value-initialised, so resident

void Reservoir::Add(double value) {
  ++seen_;
  if (size_ < sample_.size()) {
    sample_[size_++] = value;
    return;
  }
  const uint64_t slot = rng_.NextBelow(seen_);
  if (slot < sample_.size()) sample_[slot] = value;
}

void Reservoir::Clear() {
  size_ = 0;
  seen_ = 0;
}

double Reservoir::Quantile(double q) {
  return Percentile(std::span<double>(sample_.data(), size_), q);
}

WindowMeter::WindowMeter(int64_t begin_ns, int64_t window_ns, size_t windows,
                         size_t window_capacity, size_t capacity,
                         uint64_t seed, std::function<int64_t()> stolen_ns)
    : begin_ns_(begin_ns),
      window_ns_(window_ns),
      stolen_ns_(std::move(stolen_ns)),
      stolen_mark_(stolen_ns_ ? stolen_ns_() : 0),
      windows_(windows),
      current_(window_capacity, seed),
      all_(capacity, seed + 1) {
  rates_.reserve(windows);
  p50s_.reserve(windows);
}

void WindowMeter::Add(int64_t done_ns, double latency_ms) {
  if (done_ns < begin_ns_) return;
  const size_t w = static_cast<size_t>((done_ns - begin_ns_) / window_ns_);
  std::lock_guard<std::mutex> lock(mu_);
  all_.Add(latency_ms);
  if (w >= windows_) return;
  if (w > open_) CloseUntil(w);
  current_.Add(latency_ms);
}

void WindowMeter::Finish(int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t ended =
      end_ns < begin_ns_
          ? 0
          : static_cast<size_t>((end_ns - begin_ns_) / window_ns_);
  CloseUntil(std::min(windows_, ended));  // a partial window is dropped
  windows_ = open_;
}

double WindowMeter::Quantile(double q) {
  std::lock_guard<std::mutex> lock(mu_);
  return all_.Quantile(q);
}

void WindowMeter::CloseUntil(size_t next) {
  if (open_ >= next) return;
  // Steal is charged to the window being closed; windows skipped without a
  // completion have rate 0 whatever it was. Capped at half a window, so a
  // tick of misalignment cannot blow a rate up.
  const int64_t now = stolen_ns_ ? stolen_ns_() : 0;
  int64_t stolen = std::clamp<int64_t>(now - stolen_mark_, 0, window_ns_ / 2);
  stolen_mark_ = now;
  for (; open_ < next; ++open_, stolen = 0) {
    rates_.push_back(static_cast<double>(current_.seen()) * 1e9 /
                     static_cast<double>(window_ns_ - stolen));
    if (current_.seen() > 0) p50s_.push_back(current_.Quantile(0.5));
    current_.Clear();
  }
}

MixGate::MixGate(uint64_t reads_per_update, uint64_t slack)
    : per_update_(reads_per_update),
      slack_(std::max<uint64_t>(slack, 1)),
      reads_allowed_(slack_ * per_update_) {}

bool MixGate::BeforeRead() {
  const uint64_t ticket = reads_started_.fetch_add(1);
  if (ticket < reads_allowed_.load() && !stopped_.load()) return true;
  std::unique_lock<std::mutex> lock(mu_);
  readers_cv_.wait(lock, [&] {
    return stopped_.load() || ticket < reads_allowed_.load();
  });
  return !stopped_.load();
}

void MixGate::ReadDone() {
  const uint64_t done = reads_done_.fetch_add(1) + 1;
  if (done >= feed_target_.load()) {
    std::lock_guard<std::mutex> lock(mu_);
    feed_cv_.notify_one();
  }
}

bool MixGate::BeforeUpdate(uint64_t k) {
  const uint64_t target = (k + 1) * per_update_;
  std::unique_lock<std::mutex> lock(mu_);
  feed_target_.store(target);
  feed_cv_.wait(lock, [&] {
    return stopped_.load() || reads_done_.load() >= target;
  });
  feed_target_.store(UINT64_MAX);
  return !stopped_.load();
}

void MixGate::UpdateDone() {
  const uint64_t done = updates_done_.fetch_add(1) + 1;
  reads_allowed_.store((done + slack_) * per_update_);
  std::lock_guard<std::mutex> lock(mu_);
  readers_cv_.notify_all();
}

void MixGate::Stop() {
  stopped_.store(true);
  std::lock_guard<std::mutex> lock(mu_);
  readers_cv_.notify_all();
  feed_cv_.notify_all();
}

int64_t SpanLog::Open(uint32_t name, uint64_t trace, int64_t parent) {
  Span span;
  span.name = name;
  span.trace = trace;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::Close(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

void SpanLog::WriteJsonLines(std::string* out) const {
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"trace\":%llu,\"parent\":%lld,"
                  "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                  names_[span.name].c_str(),
                  static_cast<unsigned long long>(span.trace),
                  static_cast<long long>(span.parent),
                  static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns));
    out->append(line);
  }
}

std::vector<double> DepthSelfTimes(const std::vector<double>& depth_times) {
  std::vector<double> self(depth_times.size());
  for (size_t i = 0; i < depth_times.size(); ++i) {
    self[i] = i + 1 < depth_times.size() ? depth_times[i] - depth_times[i + 1]
                                         : depth_times[i];
  }
  return self;
}

namespace {

// A database holding only the site's static content: enough for the
// sampler's page inventory and the feed's schedule, no pipeline.
std::unique_ptr<nagano::db::Database> ContentDatabase() {
  nagano::db::DatabaseOptions options;
  auto db = std::make_unique<nagano::db::Database>(options);
  if (auto s = nagano::pagegen::OlympicSite::Build(FullSite(), db.get());
      !s.ok()) {
    std::fprintf(stderr, "site content: %s\n", s.ToString().c_str());
    std::abort();
  }
  return db;
}

}  // namespace

std::vector<std::string> MakeReadSequence(uint64_t seed, size_t count, int day,
                                          double* sample_ns) {
  const auto db = ContentDatabase();
  nagano::workload::PageSampler sampler(FullSite(), *db);
  sampler.SetCurrentDay(day);
  nagano::Rng rng(seed);
  std::vector<std::string> pages;
  pages.reserve(count);
  const int64_t start = NowNs();
  for (size_t i = 0; i < count; ++i) pages.push_back(sampler.Sample(rng));
  if (sample_ns != nullptr && count > 0) {
    *sample_ns = static_cast<double>(NowNs() - start) /
                 static_cast<double>(count);
  }
  return pages;
}

std::vector<FeedUpdate> MakeFeedSchedule(uint64_t seed,
                                         std::vector<size_t>* day_starts) {
  const auto db = ContentDatabase();
  nagano::workload::ResultFeed feed(db.get(), nagano::workload::FeedOptions(),
                                    seed);
  std::vector<FeedUpdate> schedule;
  for (int day = 1; day <= FullSite().days; ++day) {
    if (day_starts != nullptr) day_starts->push_back(schedule.size());
    for (FeedUpdate& update : feed.BuildDaySchedule(day)) {
      schedule.push_back(std::move(update));
    }
  }
  return schedule;
}

uint64_t CacheDigest(const nagano::cache::ObjectCache& cache, size_t* entries) {
  auto snapshot = cache.Snapshot();
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;  // separator, so ("ab","c") and ("a","bc") differ
    hash *= 1099511628211ull;
  };
  for (const auto& [key, object] : snapshot) {
    mix(key);
    mix(object->Materialize());
  }
  if (entries != nullptr) *entries = snapshot.size();
  return hash;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak RSS record (Documentation/filesystems/proc.rst).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long value = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &value) == 1) {
        kib = static_cast<double>(value);
        break;
      }
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

CpuTime ReadCpuTime(int cpu) {
  CpuTime time;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return time;
  // "cpu<N> user nice system idle iowait irq softirq steal ...", in ticks.
  const std::string want = "cpu" + std::to_string(cpu) + " ";
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::string_view(line).substr(0, want.size()) != want) continue;
    unsigned long long v[8] = {};
    if (std::sscanf(line + want.size(),
                    "%llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      static const int64_t ns_per_tick = 1'000'000'000 / sysconf(_SC_CLK_TCK);
      for (const unsigned long long x : v) {
        time.total_ns += static_cast<int64_t>(x) * ns_per_tick;
      }
      time.stolen_ns = static_cast<int64_t>(v[7]) * ns_per_tick;
    }
    break;
  }
  std::fclose(f);
  return time;
}

double StealShare(const CpuTime& before, const CpuTime& after) {
  if (after.total_ns <= before.total_ns) return 0.0;
  return static_cast<double>(after.stolen_ns - before.stolen_ns) /
         static_cast<double>(after.total_ns - before.total_ns);
}

double OwnTimer::ElapsedS() const {
  const int64_t wall = NowNs() - wall0_;
  // At most half the interval, like WindowMeter, against tick misalignment.
  const int64_t stolen = std::clamp<int64_t>(
      ReadCpuTime(cpu_).stolen_ns - stolen0_, 0, wall / 2);
  return static_cast<double>(wall - stolen) / 1e9;
}

double CalibrationMs() {
  std::vector<double> times;
  volatile uint64_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    const int64_t start = NowNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    times.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(times);
}

}  // namespace perfbench
