#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace nagano {

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

size_t Histogram::BucketFor(double value) {
  // Octave = floor(log2(value)) - kMinExponent; the sub-bucket is the linear
  // position within the octave. Values outside the covered range land in
  // the first or last bucket rather than borrowing a sub-bucket from a
  // foreign octave.
  if (!(value >= std::ldexp(1.0, kMinExponent))) return 0;  // also NaN
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // value = mant * 2^exp, mant in [0.5,1)
  const int octave = exp - 1 - kMinExponent;
  if (octave >= kOctaves) {
    return static_cast<size_t>(kOctaves) * kSubBuckets - 1;
  }
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets));
  return static_cast<size_t>(octave) * kSubBuckets + static_cast<size_t>(sub);
}

double Histogram::BucketUpperBound(size_t index) {
  const size_t octave = index / kSubBuckets;
  const size_t sub = index % kSubBuckets;
  // 2^(octave + kMinExponent): the octave's lower edge.
  const double base = std::ldexp(1.0, static_cast<int>(octave) + kMinExponent);
  return base * (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
}

void Histogram::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const size_t index = BucketFor(value);
  if (index >= buckets_.size()) {
    buckets_.resize((index / kSubBuckets + 1) * kSubBuckets, 0);
  }
  ++buckets_[index];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return std::min(BucketUpperBound(i), max_);
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
                static_cast<unsigned long long>(count_), mean(), Percentile(0.50),
                Percentile(0.95), Percentile(0.99), max_);
  return buf;
}

double TimeSeries::total() const {
  double t = 0.0;
  for (double x : v_) t += x;
  return t;
}

size_t TimeSeries::PeakSlot() const {
  size_t best = 0;
  for (size_t i = 1; i < v_.size(); ++i) {
    if (v_[i] > v_[best]) best = i;
  }
  return best;
}

std::string AsciiBarChart(const TimeSeries& series,
                          const std::vector<std::string>& labels, int width) {
  assert(labels.size() == series.slots());
  double peak = 0.0;
  for (size_t i = 0; i < series.slots(); ++i) peak = std::max(peak, series.at(i));
  if (peak <= 0.0) peak = 1.0;

  std::string out;
  for (size_t i = 0; i < series.slots(); ++i) {
    const int bar = static_cast<int>(series.at(i) / peak * width + 0.5);
    char line[512];
    std::snprintf(line, sizeof(line), "%12s | %-*s %.3g\n", labels[i].c_str(), width,
                  std::string(static_cast<size_t>(bar), '#').c_str(), series.at(i));
    out += line;
  }
  return out;
}

}  // namespace nagano
