// Measurement primitives: counters, mean/variance accumulators, and a
// log-bucketed histogram with percentile queries. The bench harness builds
// every figure/table from these.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace nagano {

// Online mean / variance (Welford). Not thread-safe.
class RunningStat {
 public:
  void Add(double x);

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Histogram over non-negative values with geometrically growing buckets
// (HdrHistogram-style, base-2 with linear sub-buckets). Octaves run from
// 2^-10 to 2^40, so in milliseconds the resolution reaches down to ~1 us.
// Within that range percentile error is bounded by the sub-bucket
// resolution (~1.6%); smaller values read back as at most ~2^-10.
class Histogram {
 public:
  void Add(double value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double max() const { return max_; }
  double min() const { return count_ ? min_ : 0.0; }

  // q in [0, 1]; returns an upper bound of the bucket containing the
  // q-quantile. Percentile(0.5) == median.
  double Percentile(double q) const;

  // "count=... mean=... p50=... p95=... p99=... max=..."
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 linear sub-buckets / octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExponent = -10;  // lowest octave starts at 2^-10
  static constexpr int kOctaves = 50;       // 2^-10 up to 2^40

  static size_t BucketFor(double value);
  static double BucketUpperBound(size_t index);

  // Grown an octave at a time up to the highest one used, so an empty or
  // narrow-range histogram stays small.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width time-series accumulator: value[i] accumulates everything
// reported for slot i. Used for "hits by hour" / "hits by day" figures.
// Out-of-range slots are not silently dropped: they land in overflow(), so
// the figure benches can assert that a series lost nothing.
class TimeSeries {
 public:
  explicit TimeSeries(size_t slots) : v_(slots, 0.0) {}

  void Add(size_t slot, double amount = 1.0) {
    if (slot < v_.size()) {
      v_[slot] += amount;
    } else {
      ++overflow_;
    }
  }
  double at(size_t slot) const { return v_[slot]; }
  size_t slots() const { return v_.size(); }
  // Number of Add() calls that fell outside [0, slots).
  uint64_t overflow() const { return overflow_; }
  double total() const;
  size_t PeakSlot() const;

 private:
  std::vector<double> v_;
  uint64_t overflow_ = 0;
};

// Renders a horizontal ASCII bar chart (one row per slot) — used by the
// figure benches to print paper-style bar graphs.
std::string AsciiBarChart(const TimeSeries& series,
                          const std::vector<std::string>& labels,
                          int width = 50);

}  // namespace nagano
