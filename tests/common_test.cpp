#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/intern.h"
#include "common/queue.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace nagano {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "missing page");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing page");
}

TEST(StatusTest, AllErrorFactoriesProduceDistinctCodes) {
  std::set<ErrorCode> codes = {
      NotFoundError("").code(),          AlreadyExistsError("").code(),
      InvalidArgumentError("").code(),   FailedPreconditionError("").code(),
      UnavailableError("").code(),       ResourceExhaustedError("").code(),
      DataLossError("").code(),          InternalError("").code(),
  };
  EXPECT_EQ(codes.size(), 8u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("body"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "body");
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t x = rng.NextInt(3, 6);
    ASSERT_GE(x, 3);
    ASSERT_LE(x, 6);
    saw_lo |= (x == 3);
    saw_hi |= (x == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.NextGaussian(10.0, 2.0));
  EXPECT_NEAR(stat.mean(), 10.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(23);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_LT(same, 2);
}

// --- Zipf ---------------------------------------------------------------------

TEST(ZipfTest, RankZeroIsHottest) {
  Rng rng(31);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfTest, MatchesTheoreticalHead) {
  Rng rng(37);
  ZipfDistribution zipf(1000, 1.0);
  // H(1000) ≈ 7.485; p(rank 0) ≈ 1/7.485 ≈ 0.1336.
  int head = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) head += (zipf.Sample(rng) == 0);
  EXPECT_NEAR(head / double(n), 0.1336, 0.01);
}

TEST(ZipfTest, SkewZeroIsUniform) {
  Rng rng(41);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(ZipfTest, SingleElement) {
  Rng rng(43);
  ZipfDistribution zipf(1, 1.0);
  EXPECT_EQ(zipf.Sample(rng), 0u);
}

// --- RunningStat -----------------------------------------------------------------

TEST(RunningStatTest, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownValues) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

// --- Histogram -------------------------------------------------------------------

TEST(HistogramTest, Empty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, MeanExact) {
  Histogram h;
  for (double x : {1.0, 2.0, 3.0, 4.0}) h.Add(x);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentileWithinBucketError) {
  Histogram h;
  Rng rng(53);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.NextExponential(100.0);
    values.push_back(x);
    h.Add(x);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(h.Percentile(q), exact, exact * 0.05) << "q=" << q;
  }
}

// Property: across the whole covered range — sub-unit values included —
// the reported percentile is within 2% of the exact sample percentile.
TEST(HistogramTest, LogUniformPercentilesWithinTwoPercent) {
  for (const uint64_t seed : {7u, 19u, 101u}) {
    Histogram h;
    Rng rng(seed);
    std::vector<double> values;
    for (int i = 0; i < 50000; ++i) {
      const double x = std::pow(10.0, -3.0 + 9.0 * rng.NextDouble());
      values.push_back(x);
      h.Add(x);
    }
    std::sort(values.begin(), values.end());
    // p1 and p10 sit below 1.0, where the histogram once had no octaves.
    for (const double q : {0.01, 0.1, 0.5, 0.99}) {
      const size_t rank =
          static_cast<size_t>(q * static_cast<double>(values.size() - 1));
      const double exact = values[rank];
      EXPECT_NEAR(h.Percentile(q), exact, exact * 0.02)
          << "seed=" << seed << " q=" << q;
    }
  }
}

// A sub-unit sample reads back near itself, not from a foreign octave
// (0.085 once read back as ~1.375).
TEST(HistogramTest, SubUnitValuesKeepTheirOctave) {
  for (const double x : {0.085, 0.0012, 0.5, 0.999}) {
    Histogram h;
    h.Add(x);
    h.Add(2.0 * x);  // keeps max() from capping the answer
    EXPECT_NEAR(h.Percentile(0.0), x, x * 0.02) << x;
  }
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(1.0);
  a.Add(10.0);
  b.Add(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 100.0);
  EXPECT_EQ(a.min(), 1.0);
}

TEST(HistogramTest, HandlesZeroAndNegative) {
  Histogram h;
  h.Add(0.0);
  h.Add(-5.0);  // clamped into the first bucket
  h.Add(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), -5.0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Add(3.0);
  EXPECT_NE(h.Summary().find("count=1"), std::string::npos);
}

// --- TimeSeries --------------------------------------------------------------------

TEST(TimeSeriesTest, AccumulateAndPeak) {
  TimeSeries ts(24);
  ts.Add(3, 5.0);
  ts.Add(3, 2.0);
  ts.Add(7, 10.0);
  EXPECT_DOUBLE_EQ(ts.at(3), 7.0);
  EXPECT_DOUBLE_EQ(ts.total(), 17.0);
  EXPECT_EQ(ts.PeakSlot(), 7u);
}

TEST(TimeSeriesTest, OutOfRangeIgnoredButCounted) {
  TimeSeries ts(4);
  ts.Add(99, 1.0);
  ts.Add(4, 1.0);  // first slot past the end
  EXPECT_DOUBLE_EQ(ts.total(), 0.0);
  EXPECT_EQ(ts.overflow(), 2u);
  ts.Add(3, 1.0);
  EXPECT_EQ(ts.overflow(), 2u);  // in-range adds don't count
}

TEST(TimeSeriesTest, AsciiChartHasOneRowPerSlot) {
  TimeSeries ts(3);
  ts.Add(0, 1);
  ts.Add(1, 2);
  ts.Add(2, 4);
  const std::string chart =
      AsciiBarChart(ts, {"a", "b", "c"}, 10);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 3);
  EXPECT_NE(chart.find("##########"), std::string::npos);  // peak row full
}

// --- Clock --------------------------------------------------------------------------

TEST(ClockTest, SimClockAdvances) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockTest, RealClockMonotonic) {
  RealClock& clock = RealClock::Instance();
  const TimeNs a = clock.Now();
  const TimeNs b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, UnitConversions) {
  EXPECT_EQ(FromMillis(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kMillisecond), 1.0);
  EXPECT_EQ(kDay, 24 * kHour);
}

// --- BlockingQueue ------------------------------------------------------------------

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST(BlockingQueueTest, TryPopEmpty) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseDrainsThenNullopt) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_EQ(q.Pop(), 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedTryPush) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, ConcurrentProducersConsumers) {
  BlockingQueue<int> q(64);
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  std::atomic<int64_t> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.Push(i);
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[3 + p].join();
  q.Close();
  for (int c = 0; c < 3; ++c) threads[c].join();
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  EXPECT_EQ(sum.load(),
            int64_t(kProducers) * kPerProducer * (kPerProducer + 1) / 2);
}

// --- ThreadPool -------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.tasks_completed(), 100u);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, DestructorDrains) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

// --- StringInterner -----------------------------------------------------------------------

TEST(InternerTest, SameStringSameId) {
  StringInterner interner;
  const InternId a = interner.Intern("alpha");
  const InternId b = interner.Intern("alpha");
  EXPECT_EQ(a, b);
  EXPECT_EQ(interner.Intern("beta"), 1u);  // "alpha" took one id
}

TEST(InternerTest, IdsAreDense) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.Intern("b"), 1u);
  EXPECT_EQ(interner.Intern("c"), 2u);
}

TEST(InternerTest, NameRoundtrip) {
  StringInterner interner;
  const InternId id = interner.Intern("/day/7");
  EXPECT_EQ(interner.Name(id), "/day/7");
}

TEST(InternerTest, LookupWithoutIntern) {
  StringInterner interner;
  EXPECT_EQ(interner.Lookup("ghost"), kInvalidInternId);
  interner.Intern("ghost");
  EXPECT_NE(interner.Lookup("ghost"), kInvalidInternId);
}

TEST(InternerTest, ConcurrentInternConsistent) {
  StringInterner interner;
  std::vector<std::thread> threads;
  std::vector<std::vector<InternId>> ids(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        ids[t].push_back(interner.Intern("key" + std::to_string(i % 100)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(interner.Intern("fresh"), 100u);  // 100 distinct keys, dense
  for (int t = 1; t < 4; ++t) {
    for (int i = 0; i < 500; ++i) EXPECT_EQ(ids[t][i], ids[0][i]);
  }
}

}  // namespace
}  // namespace nagano
