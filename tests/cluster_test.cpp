#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/net.h"
#include "cluster/sim.h"
#include "common/clock.h"

namespace nagano::cluster {
namespace {

// --- event queue ---------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  SimClock clock(0);
  EventQueue queue(&clock);
  std::vector<int> order;
  queue.At(30, [&] { order.push_back(3); });
  queue.At(10, [&] { order.push_back(1); });
  queue.At(20, [&] { order.push_back(2); });
  queue.RunUntil(30);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 30);
}

TEST(EventQueueTest, TiesBreakByInsertion) {
  SimClock clock(0);
  EventQueue queue(&clock);
  std::vector<int> order;
  queue.At(10, [&] { order.push_back(1); });
  queue.At(10, [&] { order.push_back(2); });
  queue.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  SimClock clock(0);
  EventQueue queue(&clock);
  int fired = 0;
  queue.At(10, [&] { ++fired; });
  queue.At(100, [&] { ++fired; });
  queue.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.Now(), 50);
  EXPECT_EQ(queue.pending(), 1u);
  queue.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RejectsSchedulingInThePast) {
  SimClock clock(0);
  EventQueue queue(&clock);
  clock.Advance(100);
  const Status past = queue.At(50, [] {});
  EXPECT_FALSE(past.ok());
  EXPECT_EQ(past.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_TRUE(queue.At(150, [] {}).ok());
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueTest, HandlersMayScheduleMore) {
  SimClock clock(0);
  EventQueue queue(&clock);
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) queue.At(queue.now() + 10, next);
  };
  queue.At(10, next);
  queue.RunUntil(50);
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(clock.Now(), 50);
  EXPECT_EQ(queue.pending(), 0u);
}

// --- link model ----------------------------------------------------------------

TEST(NetTest, ModemTransferDominatedByBandwidth) {
  const LinkClass modem = Modem28k8();
  // 50 KB over 28.8k: ~15s of pure transfer (plus 8% overhead + latency).
  const TimeNs t = TransferTime(modem, 50 * 1024);
  EXPECT_GT(ToSeconds(t), 14.0);
  EXPECT_LT(ToSeconds(t), 17.0);
}

TEST(NetTest, FasterLinksAreFaster) {
  const size_t bytes = 50 * 1024;
  EXPECT_LT(TransferTime(Isdn64k(), bytes), TransferTime(Modem28k8(), bytes));
  EXPECT_LT(TransferTime(Lan10M(), bytes), TransferTime(Isdn64k(), bytes));
  EXPECT_LT(ToMillis(TransferTime(Lan10M(), bytes)), 100.0);
}

TEST(NetTest, RegionCostsLookup) {
  const RegionCosts costs = RegionCosts::OlympicDefault();
  const size_t japan = costs.RegionIndex("Japan").value();
  const size_t tokyo = costs.ComplexIndex("Tokyo").value();
  const size_t schaumburg = costs.ComplexIndex("Schaumburg").value();
  EXPECT_LT(costs.Cost(japan, tokyo), costs.Cost(japan, schaumburg));
  EXPECT_LT(costs.Rtt(japan, tokyo), costs.Rtt(japan, schaumburg));
  EXPECT_FALSE(costs.RegionIndex("Mars").ok());
}

TEST(NetTest, TablesHaveOlympicRows) {
  int olympic_rows = 0;
  for (const auto& isp : Table1NonUsaIsps()) olympic_rows += isp.is_olympic_site;
  EXPECT_EQ(olympic_rows, 3);  // Japan, AUS, UK
  olympic_rows = 0;
  for (const auto& isp : Table2UsaIsps()) olympic_rows += isp.is_olympic_site;
  EXPECT_EQ(olympic_rows, 1);
  EXPECT_EQ(Table2UsaIsps().size(), 6u);
}

TEST(NetTest, FetchSecondsTracksEffectiveRate) {
  Rng rng(1);
  const IspProfile fast{"X", "Fast", 25.0, false};
  const IspProfile slow{"X", "Slow", 15.0, false};
  RunningStat fast_stat, slow_stat;
  for (int i = 0; i < 2000; ++i) {
    fast_stat.Add(FetchSeconds(fast, 50 * 1024, rng));
    slow_stat.Add(FetchSeconds(slow, 50 * 1024, rng));
  }
  EXPECT_LT(fast_stat.mean(), slow_stat.mean());
  // 50KB*8/25kbps = 16.4s + ~0.9s setup.
  EXPECT_NEAR(fast_stat.mean(), 17.3, 0.5);
}

// --- serving fabric ----------------------------------------------------------------

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : costs_(RegionCosts::OlympicDefault()),
        fabric_(FabricOptions::Olympic(RegionCosts::OlympicDefault(),
                                       &clock_)) {}

  size_t Region(const char* name) { return costs_.RegionIndex(name).value(); }
  size_t Complex(const char* name) { return costs_.ComplexIndex(name).value(); }

  RequestOutcome Serve(size_t region) {
    return fabric_.Route(region, FromMillis(5), 10 * 1024, Lan10M());
  }

  // Serves `n` requests from `region` with the clock stopped and counts
  // those that did not queue. Least-loaded picking gives each alive node
  // exactly one such request, so with n above the node count this is the
  // number of nodes serving at the complex the region routes to.
  int NodesThatServed(size_t region, int n) {
    int unqueued = 0;
    for (int i = 0; i < n; ++i) {
      const auto out = Serve(region);
      EXPECT_TRUE(out.served);
      unqueued += out.queue_delay == 0;
    }
    return unqueued;
  }

  SimClock clock_{0};
  RegionCosts costs_;
  ServingFabric fabric_;
};

TEST_F(FabricTest, GeographicAffinity) {
  // Requests route to the closest complex: Japan -> Tokyo, US -> Schaumburg
  // or Columbus (equal cost; MSIPR addresses split them).
  for (int i = 0; i < 120; ++i) {
    const auto out = Serve(Region("Japan"));
    ASSERT_TRUE(out.served);
    EXPECT_EQ(fabric_.complex_name(out.complex_index), "Tokyo");
  }
  std::set<std::string> us_targets;
  for (int i = 0; i < 120; ++i) {
    const auto out = Serve(Region("United States"));
    ASSERT_TRUE(out.served);
    us_targets.insert(fabric_.complex_name(out.complex_index));
  }
  EXPECT_FALSE(us_targets.count("Tokyo"));
}

TEST_F(FabricTest, LoadSpreadsAcrossNodes) {
  // 240 quick requests into Tokyo (24 nodes): least-loaded picking spreads
  // them evenly, so queueing stays near zero.
  TimeNs max_queue = 0;
  for (int i = 0; i < 240; ++i) {
    const auto out = Serve(Region("Japan"));
    max_queue = std::max(max_queue, out.queue_delay);
  }
  EXPECT_LT(ToMillis(max_queue), 50.0);
  EXPECT_GT(fabric_.Utilization(Complex("Tokyo"), kSecond), 0.0);
}

TEST_F(FabricTest, ResponseIncludesRttAndTransfer) {
  const auto out = fabric_.Route(Region("Japan"), FromMillis(5), 50 * 1024,
                                 Modem28k8());
  ASSERT_TRUE(out.served);
  // RTT(20ms) + cpu(5ms) + modem transfer (~15s).
  EXPECT_GT(ToSeconds(out.response_time), 14.0);
  EXPECT_LT(ToSeconds(out.response_time), 18.0);
}

TEST_F(FabricTest, NodeFailureAbsorbed) {
  ASSERT_TRUE(fabric_.FailNode("Tokyo", 0, 0).ok());
  ASSERT_TRUE(fabric_.FailNode("Tokyo", 0, 1).ok());
  EXPECT_EQ(NodesThatServed(Region("Japan"), 200), 24 - 2);
  EXPECT_EQ(fabric_.stats().served_by_complex[Complex("Tokyo")], 200u);
  EXPECT_DOUBLE_EQ(fabric_.stats().Availability(), 1.0);
}

TEST_F(FabricTest, FrameFailureAbsorbed) {
  ASSERT_TRUE(fabric_.FailFrame("Tokyo", 1).ok());
  EXPECT_EQ(NodesThatServed(Region("Japan"), 200), 16);
  EXPECT_EQ(fabric_.stats().served_by_complex[Complex("Tokyo")], 200u);
  ASSERT_TRUE(fabric_.RecoverFrame("Tokyo", 1).ok());
  // The recovered frame's idle nodes take the next requests unqueued.
  EXPECT_EQ(NodesThatServed(Region("Japan"), 200), 8);
}

TEST_F(FabricTest, DispatcherFailureFallsBackToSecondary) {
  // Each box is primary for 3 addresses and secondary for 2 others (§4.2),
  // so with dispatcher 0 down, two of its three addresses fail over to the
  // in-complex secondary; the third (no local secondary) goes to the next
  // complex — "similar to ... deliberately not advertising an address".
  ASSERT_TRUE(fabric_.FailDispatcher("Tokyo", 0).ok());
  int stayed = 0;
  const int n = 1200;
  for (int i = 0; i < n; ++i) {
    const auto out = Serve(Region("Japan"));
    ASSERT_TRUE(out.served);
    const bool tokyo = out.complex_index == Complex("Tokyo");
    stayed += tokyo;
    // Round-robin DNS hands request i address i % 12. Addresses 0 and 1
    // have a live in-complex secondary (dispatcher 3); address 2 has none
    // and moves to another complex.
    const int address = i % 12;
    if (address == 0 || address == 1) {
      EXPECT_TRUE(tokyo) << address;
    } else if (address == 2) {
      EXPECT_FALSE(tokyo);
    }
  }
  EXPECT_NEAR(stayed / double(n), 11.0 / 12.0, 0.02);
}

TEST_F(FabricTest, ComplexFailureReroutesElsewhere) {
  ASSERT_TRUE(fabric_.FailComplex("Tokyo").ok());
  for (int i = 0; i < 120; ++i) {
    const auto out = Serve(Region("Japan"));
    ASSERT_TRUE(out.served);
    EXPECT_NE(fabric_.complex_name(out.complex_index), "Tokyo");
  }
  EXPECT_DOUBLE_EQ(fabric_.stats().Availability(), 1.0);

  ASSERT_TRUE(fabric_.RecoverComplex("Tokyo").ok());
  const auto back = Serve(Region("Japan"));
  EXPECT_EQ(fabric_.complex_name(back.complex_index), "Tokyo");
}

TEST_F(FabricTest, TotalBlackoutFailsRequests) {
  for (const char* name : {"Schaumburg", "Columbus", "Bethesda", "Tokyo"}) {
    ASSERT_TRUE(fabric_.FailComplex(name).ok());
  }
  const auto out = Serve(Region("Japan"));
  EXPECT_FALSE(out.served);
  EXPECT_LT(fabric_.stats().Availability(), 1.0);
}

TEST_F(FabricTest, UndetectedDeadNodeCostsOneRetry) {
  ASSERT_TRUE(fabric_.FailNode("Tokyo", 0, 0).ok());
  // The advisor has not polled yet; the first request that picks the dead
  // node pays a retry, after which the advisor pulls it from the list.
  int total_retries = 0;
  for (int i = 0; i < 100; ++i) {
    const auto out = Serve(Region("Japan"));
    ASSERT_TRUE(out.served);
    total_retries += out.retries;
  }
  EXPECT_EQ(total_retries, 1);
}

TEST_F(FabricTest, TrafficShiftingInTwelfths) {
  // §4.1: "With all twelve IP addresses to manipulate, we could shift
  // traffic among the sites in 8 1/3% increments."
  // Stop advertising 3 of Tokyo's 12 addresses; Japanese requests assigned
  // those addresses route to the next-closest complex.
  for (int address = 0; address < 3; ++address) {
    ASSERT_TRUE(fabric_.SetAdvertised("Tokyo", address, false).ok());
  }
  int moved = 0;
  const int n = 1200;
  for (int i = 0; i < n; ++i) {
    const auto out = Serve(Region("Japan"));
    ASSERT_TRUE(out.served);
    if (fabric_.complex_name(out.complex_index) != "Tokyo") ++moved;
  }
  EXPECT_NEAR(moved / double(n), 3.0 / 12.0, 0.02);
}

TEST_F(FabricTest, RouteTargetReflectsAdvertisement) {
  // Request i of a fresh fabric gets address i % 12 (round-robin DNS).
  const size_t japan = Region("Japan");
  const size_t tokyo = Complex("Tokyo");
  EXPECT_EQ(Serve(japan).complex_index, tokyo);  // address 0
  for (int i = 1; i < 12; ++i) Serve(japan);
  ASSERT_TRUE(fabric_.SetAdvertised("Tokyo", 0, false).ok());
  EXPECT_NE(Serve(japan).complex_index, tokyo);  // address 0
  for (int i = 1; i < 12; ++i) EXPECT_EQ(Serve(japan).complex_index, tokyo);
  ASSERT_TRUE(fabric_.SetAdvertised("Tokyo", 0, true).ok());
  EXPECT_EQ(Serve(japan).complex_index, tokyo);  // address 0
}

TEST_F(FabricTest, QueueingUnderOverload) {
  // Drive one complex past capacity with expensive requests: queueing
  // delay must grow (requests back up behind busy nodes).
  TimeNs last_queue = 0;
  for (int i = 0; i < 24 * 20; ++i) {
    const auto out = fabric_.Route(Region("Japan"), FromMillis(500),
                                   10 * 1024, Lan10M());
    ASSERT_TRUE(out.served);
    last_queue = out.queue_delay;
  }
  EXPECT_GT(ToMillis(last_queue), 1000.0);
}

TEST_F(FabricTest, ClockAdvanceDrainsQueues) {
  for (int i = 0; i < 24 * 10; ++i) {
    fabric_.Route(Region("Japan"), FromMillis(500), 1024, Lan10M());
  }
  clock_.Advance(kMinute);
  const auto out = Serve(Region("Japan"));
  EXPECT_EQ(out.queue_delay, 0);
}

TEST_F(FabricTest, StatsAccounting) {
  for (int i = 0; i < 50; ++i) Serve(Region("Europe"));
  const auto stats = fabric_.stats();
  EXPECT_EQ(stats.requests, 50u);
  EXPECT_EQ(stats.served, 50u);
  EXPECT_EQ(stats.failed, 0u);
  uint64_t by_complex = 0;
  for (uint64_t c : stats.served_by_complex) by_complex += c;
  EXPECT_EQ(by_complex, 50u);
}

TEST_F(FabricTest, InvalidFailureTargetsRejected) {
  EXPECT_EQ(fabric_.FailComplex("Atlantis").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fabric_.FailNode("Tokyo", 99, 0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fabric_.FailDispatcher("Tokyo", 99).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fabric_.SetAdvertised("Tokyo", 99, false).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace nagano::cluster
