// The benchmark's own tests: exact percentiles, fixed-memory sampling and
// window figures, the read/update mix gate, span self-time arithmetic, and
// a deterministic input generator. run.py runs them before every
// measured run.
#include "harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, ExactOnSubMillisecondSamples) {
  // 100 latencies of 0.001 .. 0.100 ms, shuffled.
  std::vector<double> ms;
  for (int i = 100; i >= 1; --i) ms.push_back(i / 1000.0);
  std::swap(ms[3], ms[70]);
  EXPECT_DOUBLE_EQ(Percentile(ms, 0.0), 0.001);
  EXPECT_DOUBLE_EQ(Percentile(ms, 1.0), 0.100);
  // Position 0.5 * 99 = 49.5: halfway between 0.050 and 0.051.
  EXPECT_NEAR(Percentile(ms, 0.5), 0.0505, 1e-15);
  // Position 0.99 * 99 = 98.01.
  EXPECT_NEAR(Percentile(ms, 0.99), 0.099 + 0.01 * 0.001, 1e-15);
}

TEST(PercentileTest, SmallVectorsAndTies) {
  std::vector<double> empty;
  EXPECT_EQ(Percentile(empty, 0.5), 0.0);
  std::vector<double> one{0.25};
  EXPECT_DOUBLE_EQ(Percentile(one, 0.99), 0.25);
  std::vector<double> ties{0.3, 0.1, 0.3, 0.3};
  EXPECT_DOUBLE_EQ(Percentile(ties, 0.5), 0.3);
  EXPECT_DOUBLE_EQ(Median({0.4, 0.2}), 0.3);
}

TEST(ReservoirTest, ExactUpToCapacityThenFixedSize) {
  Reservoir r(4, 1);
  for (const double v : {0.4, 0.1, 0.3, 0.2}) r.Add(v);
  EXPECT_DOUBLE_EQ(r.Quantile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(r.Quantile(1.0), 0.4);
  EXPECT_DOUBLE_EQ(r.Quantile(0.5), 0.25);
  // Beyond capacity the sample stays at 4 values drawn from all added.
  for (int i = 0; i < 1000; ++i) r.Add(10.0 + i);
  EXPECT_EQ(r.seen(), 1004u);
  EXPECT_GE(r.Quantile(0.0), 0.1);
  EXPECT_LE(r.Quantile(1.0), 1009.0);
  r.Clear();
  EXPECT_EQ(r.seen(), 0u);
  EXPECT_EQ(r.Quantile(0.5), 0.0);
}

TEST(ReservoirTest, LargeSampleKeepsTheMedian) {
  Reservoir r(2048, 7);
  for (int i = 0; i < 200000; ++i) r.Add((i * 7919) % 1000 / 1000.0);
  EXPECT_NEAR(r.Quantile(0.5), 0.5, 0.03);
}

TEST(WindowTest, RatesAndMediansPerWholeWindow) {
  // Window 1: 3 reads at 0.1-0.3 ms; window 2: none; window 3: 1 read at
  // 0.5 ms; the fourth window is partial and dropped, and a read before
  // `begin` is ignored.
  WindowMeter meter(0, 100, 8, 16, 16, 1);
  meter.Add(-5, 9.0);
  meter.Add(10, 0.1);
  meter.Add(20, 0.3);
  meter.Add(99, 0.2);
  meter.Add(250, 0.5);
  meter.Add(330, 7.0);
  meter.Finish(350);
  meter.Add(351, 8.0);  // after Finish: ignored by the windows
  const std::vector<double>& rates = meter.rates();
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 3e7);  // 3 per 100 ns
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
  EXPECT_DOUBLE_EQ(rates[2], 1e7);
  const std::vector<double>& p50s = meter.p50s();
  ASSERT_EQ(p50s.size(), 2u);
  EXPECT_DOUBLE_EQ(p50s[0], 0.2);
  EXPECT_DOUBLE_EQ(p50s[1], 0.5);
  // Every completion from `begin` on: 0.1 0.2 0.3 0.5 7 8.
  EXPECT_DOUBLE_EQ(meter.Quantile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(meter.Quantile(1.0), 8.0);
}

TEST(WindowTest, IntervalEndsAtTheLastPlannedWindow) {
  WindowMeter meter(0, 100, 2, 16, 16, 1);
  meter.Add(50, 1.0);
  meter.Add(150, 2.0);
  meter.Add(250, 3.0);  // past the planned windows
  meter.Finish(1000);
  ASSERT_EQ(meter.rates().size(), 2u);
  EXPECT_DOUBLE_EQ(meter.p50s()[1], 2.0);
}

TEST(WindowTest, StolenTimeIsTakenOutOfTheWindow) {
  int64_t stolen = 1000;  // a running total, as the kernel keeps it
  WindowMeter meter(0, 100, 4, 16, 16, 1, [&stolen] { return stolen; });
  meter.Add(10, 0.1);
  meter.Add(20, 0.1);
  stolen += 50;
  meter.Add(110, 0.2);  // closes window 0: 2 reads in 100 - 50 ns
  stolen += 200;
  meter.Add(210, 0.3);  // closes window 1: stolen capped at half a window
  meter.Finish(300);
  ASSERT_EQ(meter.rates().size(), 3u);
  EXPECT_DOUBLE_EQ(meter.rates()[0], 2e9 / 50);
  EXPECT_DOUBLE_EQ(meter.rates()[1], 1e9 / 50);
  EXPECT_DOUBLE_EQ(meter.rates()[2], 1e9 / 100);
}

TEST(MixGateTest, HoldsReadsAndUpdatesToTheMix) {
  MixGate gate(/*reads_per_update=*/3, /*slack=*/2);
  std::atomic<int> started{0};
  std::thread reader([&] {
    while (gate.BeforeRead()) {
      ++started;
      gate.ReadDone();
    }
  });
  const auto settle = [&started](int expected) {
    while (started.load() < expected) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return started.load();
  };
  // Update 0 waits for 3 reads; before any update, 2 x 3 reads may start.
  ASSERT_TRUE(gate.BeforeUpdate(0));
  EXPECT_GE(gate.reads_done(), 3u);
  EXPECT_EQ(settle(6), 6);
  gate.UpdateDone();  // one update done: (1 + 2) x 3 reads may start
  ASSERT_TRUE(gate.BeforeUpdate(1));
  EXPECT_EQ(settle(9), 9);
  EXPECT_EQ(gate.updates_done(), 1u);
  gate.Stop();  // releases the held reader
  reader.join();
  EXPECT_EQ(started.load(), 9);
  EXPECT_FALSE(gate.BeforeRead());
  EXPECT_FALSE(gate.BeforeUpdate(2));
}

TEST(ProbeTest, ReadsThisCpusTime) {
  const CpuTime time = ReadCpuTime(0);
  EXPECT_GT(time.total_ns, 0);
  EXPECT_GE(time.stolen_ns, 0);
  EXPECT_LE(time.stolen_ns, time.total_ns);
  EXPECT_EQ(ReadCpuTime(1 << 20).total_ns, 0);  // no such CPU
}

Span At(int64_t start, int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, DepthChainDifferences) {
  // via dispatcher, direct HTTP, in-process serve, cache lookup (us).
  const std::vector<double> self = DepthSelfTimes({120.0, 45.0, 2.5, 0.25});
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 75.0);
  EXPECT_DOUBLE_EQ(self[1], 42.5);
  EXPECT_DOUBLE_EQ(self[2], 2.25);
  EXPECT_DOUBLE_EQ(self[3], 0.25);
}

TEST(SpanLogTest, RecordsSpansAsJsonLines) {
  SpanLog log({"a", "b"});
  log.Add(At(0, 10));
  Span b = At(5, 8);
  b.name = 1;
  b.parent = 0;
  log.Add(b);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].duration_ns(), 3);
  std::string json;
  log.WriteJsonLines(&json);
  EXPECT_NE(json.find("\"name\":\"b\",\"trace\":0,\"parent\":0"),
            std::string::npos);
}

TEST(GeneratorTest, SameSeedSamePageSequence) {
  const auto a = MakeReadSequence(7, 5000, 8);
  const auto b = MakeReadSequence(7, 5000, 8);
  const auto c = MakeReadSequence(8, 5000, 8);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// Every field of one update, for comparing schedules.
std::string Describe(const nagano::workload::FeedUpdate& u) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%d %lld e%lld r%lld a%lld s%.9f n%lld p%lld ",
                static_cast<int>(u.kind), static_cast<long long>(u.at),
                static_cast<long long>(u.event_id),
                static_cast<long long>(u.rank),
                static_cast<long long>(u.athlete_id), u.score,
                static_cast<long long>(u.article_id),
                static_cast<long long>(u.photo_id));
  return buf + u.title;
}

TEST(GeneratorTest, SameSeedSameFeedSchedule) {
  std::vector<size_t> day_starts;
  const auto a = MakeFeedSchedule(7, &day_starts);
  const auto b = MakeFeedSchedule(7);
  const auto c = MakeFeedSchedule(8);
  // 120 events x (10 results + completion + 2 photos) + 16 days x 6 news.
  ASSERT_EQ(a.size(), 1656u);
  ASSERT_EQ(b.size(), a.size());
  ASSERT_EQ(c.size(), a.size());
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Describe(a[i]), Describe(b[i])) << "update " << i;
    differs = differs || Describe(a[i]) != Describe(c[i]);
  }
  EXPECT_TRUE(differs);
  // Days in order: 16 starts, ascending, each day non-empty.
  ASSERT_EQ(day_starts.size(), 16u);
  EXPECT_EQ(day_starts[0], 0u);
  for (size_t d = 1; d < day_starts.size(); ++d) {
    EXPECT_LT(day_starts[d - 1], day_starts[d]);
  }
}

}  // namespace
}  // namespace perfbench
