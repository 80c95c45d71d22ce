#include "server/access_log.h"

#include <algorithm>

namespace nagano::server {

AccessLog::AccessLog(const metrics::Options& metrics_options) {
  const auto scope = metrics::Scope::Resolve(metrics_options, "access_log");
  field_clamps_ = scope.GetCounter(
      "nagano_access_log_field_clamps_total",
      "records whose bytes/response_us saturated their 32-bit field");
}

void AccessLog::Append(TimeNs at, std::string_view page, ServeClass cls,
                       size_t bytes, TimeNs response_time, uint16_t region) {
  AccessRecord record;
  record.at = at;
  record.page_id = pages_.Intern(page);
  record.region = region;
  record.cls = cls;
  bool clamped = false;
  if (bytes > UINT32_MAX) {
    bytes = UINT32_MAX;
    clamped = true;
  }
  record.bytes = static_cast<uint32_t>(bytes);
  // Saturate instead of wrapping: a response slower than ~71.6 minutes (or a
  // negative duration from a misbehaving clock, pinned to 0) must not alias
  // to a fast one in the audit log.
  TimeNs response_us = response_time / kMicrosecond;
  if (response_us < 0) {
    response_us = 0;
    clamped = true;
  } else if (response_us > static_cast<TimeNs>(UINT32_MAX)) {
    response_us = static_cast<TimeNs>(UINT32_MAX);
    clamped = true;
  }
  record.response_us = static_cast<uint32_t>(response_us);
  if (clamped) field_clamps_->Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<AccessRecord> AccessLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::string_view AccessLog::PageName(uint32_t page_id) const {
  return pages_.Name(page_id);
}

LogAnalyzer::LogAnalyzer(const AccessLog& log, TimeNs epoch)
    : log_(log), epoch_(epoch), records_(log.Snapshot()) {}

uint64_t LogAnalyzer::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& r : records_) total += r.bytes;
  return total;
}

TimeSeries LogAnalyzer::HitsByHour() const {
  TimeSeries series(24);
  for (const auto& r : records_) {
    if (r.at < epoch_) continue;
    series.Add(static_cast<size_t>(((r.at - epoch_) / kHour) % 24));
  }
  return series;
}

std::pair<int64_t, uint64_t> LogAnalyzer::PeakMinute() const {
  std::map<int64_t, uint64_t> minutes;
  for (const auto& r : records_) {
    if (r.at < epoch_) continue;
    ++minutes[(r.at - epoch_) / kMinute];
  }
  std::pair<int64_t, uint64_t> best{-1, 0};
  for (const auto& [minute, hits] : minutes) {
    if (hits > best.second) best = {minute, hits};
  }
  return best;
}

std::map<ServeClass, uint64_t> LogAnalyzer::ByServeClass() const {
  std::map<ServeClass, uint64_t> counts;
  for (const auto& r : records_) ++counts[r.cls];
  return counts;
}

double LogAnalyzer::DynamicHitRate() const {
  uint64_t hits = 0, misses = 0;
  for (const auto& r : records_) {
    if (r.cls == ServeClass::kCacheHit) ++hits;
    if (r.cls == ServeClass::kCacheMissGenerated) ++misses;
  }
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::vector<std::pair<std::string, uint64_t>> LogAnalyzer::TopPages(
    size_t n) const {
  std::map<uint32_t, uint64_t> counts;
  for (const auto& r : records_) ++counts[r.page_id];
  std::vector<std::pair<std::string, uint64_t>> pages;
  pages.reserve(counts.size());
  for (const auto& [page_id, hits] : counts) {
    pages.emplace_back(std::string(log_.PageName(page_id)), hits);
  }
  std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (pages.size() > n) pages.resize(n);
  return pages;
}

}  // namespace nagano::server
