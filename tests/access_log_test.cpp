#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "server/access_log.h"

namespace nagano::server {
namespace {

TEST(AccessLogTest, AppendAndSnapshot) {
  AccessLog log;
  log.Append(5 * kSecond, "/day/1", ServeClass::kCacheHit, 1024,
             FromMillis(12), 2);
  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at, 5 * kSecond);
  EXPECT_EQ(log.PageName(records[0].page_id), "/day/1");
  EXPECT_EQ(records[0].cls, ServeClass::kCacheHit);
  EXPECT_EQ(records[0].bytes, 1024u);
  EXPECT_EQ(records[0].response_us, 12'000u);
  EXPECT_EQ(records[0].region, 2);
}

TEST(AccessLogTest, PageIdsInterned) {
  AccessLog log;
  for (int i = 0; i < 100; ++i) {
    log.Append(i, "/medals", ServeClass::kCacheHit, 1, 0);
  }
  const auto records = log.Snapshot();
  for (const auto& r : records) EXPECT_EQ(r.page_id, records[0].page_id);
}

TEST(AccessLogTest, OverwideFieldsSaturateAndAreCounted) {
  metrics::MetricRegistry registry;
  metrics::Options options;
  options.registry = &registry;
  options.instance = "clamp";
  AccessLog log(options);
  metrics::Counter* clamps = registry.GetCounter(
      "nagano_access_log_field_clamps_total", {{"site", "clamp"}});

  // A response slower than uint32_t microseconds saturates instead of
  // wrapping around to a fast-looking record.
  const TimeNs too_slow = (static_cast<TimeNs>(UINT32_MAX) + 5) * kMicrosecond;
  log.Append(0, "/slow", ServeClass::kCacheHit, 10, too_slow);
  // A negative duration (misbehaving clock) pins to zero.
  log.Append(0, "/backwards", ServeClass::kCacheHit, 10, -kSecond);
  // In-range records never touch the counter.
  log.Append(0, "/fine", ServeClass::kCacheHit, 10, FromMillis(5));

  const auto records = log.Snapshot();
  EXPECT_EQ(records[0].response_us, UINT32_MAX);
  EXPECT_EQ(records[1].response_us, 0u);
  EXPECT_EQ(records[2].response_us, 5'000u);
  EXPECT_EQ(clamps->value(), 2u);
}

TEST(AccessLogTest, ConcurrentAppends) {
  AccessLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 1000; ++i) {
        log.Append(i, "/p" + std::to_string(t), ServeClass::kCacheHit, 10, 0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.Snapshot().size(), 4000u);
}

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two "days" of traffic: day 0 has 3 hits on /a and 1 on /b; day 1 has
    // 2 hits on /b. One miss on day 1.
    log_.Append(1 * kHour, "/a", ServeClass::kCacheHit, 100, FromMillis(10), 0);
    log_.Append(2 * kHour, "/a", ServeClass::kCacheHit, 100, FromMillis(20), 0);
    log_.Append(26 * kHour, "/b", ServeClass::kCacheHit, 300, FromMillis(30), 1);
    log_.Append(2 * kHour + kMinute, "/a", ServeClass::kCacheHit, 100,
                FromMillis(10), 0);
    log_.Append(3 * kHour, "/b", ServeClass::kStatic, 50, FromMillis(5), 1);
    log_.Append(27 * kHour, "/b", ServeClass::kCacheMissGenerated, 300,
                FromMillis(500), 1);
  }
  AccessLog log_;
};

TEST_F(AnalyzerTest, Totals) {
  LogAnalyzer analyzer(log_);
  EXPECT_EQ(analyzer.TotalHits(), 6u);
  EXPECT_EQ(analyzer.TotalBytes(), 100u + 100u + 300u + 100u + 50u + 300u);
}

TEST_F(AnalyzerTest, HitsByHourFoldsDays) {
  LogAnalyzer analyzer(log_);
  const auto by_hour = analyzer.HitsByHour();
  EXPECT_DOUBLE_EQ(by_hour.at(2), 3.0);  // 2h, 2h01, 26h (=2h next day)
  EXPECT_DOUBLE_EQ(by_hour.at(1), 1.0);
  EXPECT_DOUBLE_EQ(by_hour.at(3), 2.0);  // 3h and 27h
}

TEST_F(AnalyzerTest, PeakMinute) {
  AccessLog log;
  for (int i = 0; i < 5; ++i) {
    log.Append(10 * kMinute + i * kSecond, "/a", ServeClass::kCacheHit, 1, 0);
  }
  log.Append(11 * kMinute, "/a", ServeClass::kCacheHit, 1, 0);
  LogAnalyzer analyzer(log);
  const auto [minute, hits] = analyzer.PeakMinute();
  EXPECT_EQ(minute, 10);
  EXPECT_EQ(hits, 5u);
}

TEST_F(AnalyzerTest, ServeClassBreakdownAndHitRate) {
  LogAnalyzer analyzer(log_);
  const auto by_class = analyzer.ByServeClass();
  EXPECT_EQ(by_class.at(ServeClass::kCacheHit), 4u);
  EXPECT_EQ(by_class.at(ServeClass::kStatic), 1u);
  EXPECT_EQ(by_class.at(ServeClass::kCacheMissGenerated), 1u);
  EXPECT_DOUBLE_EQ(analyzer.DynamicHitRate(), 4.0 / 5.0);
}

TEST_F(AnalyzerTest, TopPages) {
  LogAnalyzer analyzer(log_);
  const auto top = analyzer.TopPages(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "/a");
  EXPECT_EQ(top[0].second, 3u);
  const auto both = analyzer.TopPages(10);
  EXPECT_EQ(both.size(), 2u);
  EXPECT_EQ(both[1].second, 3u);  // /b also 3 hits, tie-broken by name
}

TEST_F(AnalyzerTest, EpochDropsEarlierRecords) {
  LogAnalyzer analyzer(log_, 24 * kHour);  // epoch at hour 24
  // Only the 26h/27h records remain, as hours 2 and 3 after the epoch.
  const auto by_hour = analyzer.HitsByHour();
  EXPECT_DOUBLE_EQ(by_hour.at(1), 0.0);
  EXPECT_DOUBLE_EQ(by_hour.at(2), 1.0);
  EXPECT_DOUBLE_EQ(by_hour.at(3), 1.0);
}

}  // namespace
}  // namespace nagano::server
