// Access logging and log analysis.
//
// Every §5 number in the paper came from web logs ("the total number of
// hits ... were both determined by independent organizations which audited
// the Web logs"). This module gives the reproduction the same shape: the
// serving path appends compact per-request records, and LogAnalyzer
// derives the evaluation series — hits by day/hour, bytes, per-page top-N,
// serve-class breakdown, peak minute — from the log rather than from live
// counters, so figures can be rebuilt after the fact and cross-checked.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/intern.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "server/serving.h"

namespace nagano::server {

// One served request. 32 bytes + the interned page id keeps a games-scale
// log (hundreds of millions of records at full scale; millions here)
// cheap.
struct AccessRecord {
  TimeNs at = 0;             // completion time
  uint32_t page_id = 0;      // interned page name
  uint16_t region = 0;       // workload region index (0xffff = unknown)
  ServeClass cls = ServeClass::kNotFound;
  uint32_t bytes = 0;
  uint32_t response_us = 0;  // client-observed response time, microseconds
};

class AccessLog {
 public:
  AccessLog() : AccessLog(metrics::Options{}) {}
  explicit AccessLog(const metrics::Options& metrics_options);

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  // Appends one record. Thread-safe.
  void Append(TimeNs at, std::string_view page, ServeClass cls, size_t bytes,
              TimeNs response_time, uint16_t region = 0xffff);

  // Snapshot of the records (copy; the analyzer works on snapshots).
  std::vector<AccessRecord> Snapshot() const;
  // The page name for a record's page_id.
  std::string_view PageName(uint32_t page_id) const;

 private:
  mutable std::mutex mutex_;
  StringInterner pages_;
  std::vector<AccessRecord> records_;
  // Records whose fields exceeded their compact-width range and were clamped
  // to the maximum (response_us saturates at ~71.6 minutes). A nonzero count
  // means the audit figures under-report tail latency / bytes.
  metrics::Counter* field_clamps_;
};

// Aggregations over a log snapshot — the §5 audit.
class LogAnalyzer {
 public:
  // `epoch` is the timestamp of Day 1, 00:00; slots are derived from it.
  LogAnalyzer(const AccessLog& log, TimeNs epoch = 0);

  uint64_t TotalHits() const { return records_.size(); }
  uint64_t TotalBytes() const;

  // Hits per hour-of-day, all days folded together (Fig. 18).
  TimeSeries HitsByHour() const;

  // The busiest single minute: (minute index since epoch, hits) — the
  // Guinness-record measurement.
  std::pair<int64_t, uint64_t> PeakMinute() const;

  // Hit/miss/static/etc. counts.
  std::map<ServeClass, uint64_t> ByServeClass() const;
  double DynamicHitRate() const;

  // Top-N pages by hits: (page name, hits), descending.
  std::vector<std::pair<std::string, uint64_t>> TopPages(size_t n) const;

 private:
  const AccessLog& log_;
  TimeNs epoch_;
  std::vector<AccessRecord> records_;
};

}  // namespace nagano::server
