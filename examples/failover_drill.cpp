// failover_drill — walks the §4.2 "elegant degradation" chain one failure
// at a time, narrating where client traffic lands after each event.
//
// Default (sim): the four-complex fabric on simulated time. The failures
// are not injected by hand: a deterministic FaultPlan scripts kWindow
// outages and the fabric syncs the window edges to its own Fail*/Recover*
// chain while routing. The drill just advances the clock and probes.
//
// --real: the same scripted kill timeline against a live dispatcher
// topology (dispatch::DispatcherCluster — real TCP, wall-clock time): a
// backend is hard-killed mid-drill, revived from its WAL, and another is
// rolling-upgraded through a clean drain. The transcript format is
// identical to the sim path's, for direct sim-vs-real comparison.
//
// Run: build/examples/failover_drill [--real]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/net.h"
#include "common/clock.h"
#include "common/fault.h"
#include "dispatch/cluster.h"
#include "http/client.h"

using namespace nagano;
using namespace nagano::cluster;

namespace {

void Probe(ServingFabric& fabric, size_t region, const char* stage) {
  // 120 requests cycle through all 12 MSIPR addresses 10 times.
  uint64_t by_complex[8] = {0};
  uint64_t failed = 0;
  double worst_ms = 0;
  for (int i = 0; i < 120; ++i) {
    const auto out = fabric.Route(region, FromMillis(5), 10 * 1024, Isdn64k());
    if (!out.served) {
      ++failed;
      continue;
    }
    ++by_complex[out.complex_index];
    worst_ms = std::max(worst_ms, ToMillis(out.response_time));
  }
  std::printf("%-44s", stage);
  for (size_t c = 0; c < fabric.num_complexes(); ++c) {
    if (by_complex[c] == 0) continue;
    std::printf(" %s:%llu", fabric.complex_name(c).c_str(),
                static_cast<unsigned long long>(by_complex[c]));
  }
  if (failed > 0) std::printf(" FAILED:%llu", (unsigned long long)failed);
  std::printf("  (worst %.0f ms)\n", worst_ms);
}

fault::FaultRule Window(const char* site, const char* operation,
                        double from_s, double until_s) {
  fault::FaultRule rule;
  rule.subsystem = "fabric";
  rule.site = site;
  rule.operation = operation;
  rule.kind = fault::FaultKind::kWindow;
  rule.from = static_cast<TimeNs>(from_s * 1e9);
  rule.until = static_cast<TimeNs>(until_s * 1e9);
  return rule;
}

// --- the real-TCP drill ------------------------------------------------------

// 120 one-shot requests through the live dispatcher; same line format as
// the sim Probe (per-target counts, FAILED, worst response). Where they
// landed is the change in each backend's routed-connection count: every
// one-shot request is one connection.
struct RealTotals {
  uint64_t requests = 0;
  uint64_t failed = 0;
};

void ProbeReal(dispatch::DispatcherCluster& cluster, const char* stage,
               RealTotals& totals) {
  const std::vector<dispatch::BackendSnapshot> before =
      cluster.dispatcher().snapshots();
  uint64_t failed = 0;
  double worst_ms = 0;
  for (int i = 0; i < 120; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = http::HttpClient::FetchOnce("127.0.0.1", cluster.port(),
                                         "/day/1");
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ++totals.requests;
    if (!r.ok() || r.value().status != 200) {
      ++failed;
      ++totals.failed;
      continue;
    }
    worst_ms = std::max(worst_ms, ms);
  }
  const std::vector<dispatch::BackendSnapshot> after =
      cluster.dispatcher().snapshots();
  std::printf("%-44s", stage);
  for (size_t b = 0; b < after.size(); ++b) {
    const uint64_t routed = after[b].requests - before[b].requests;
    if (routed == 0) continue;
    std::printf(" %s:%llu", after[b].name.c_str(),
                static_cast<unsigned long long>(routed));
  }
  if (failed > 0) std::printf(" FAILED:%llu", (unsigned long long)failed);
  std::printf("  (worst %.0f ms)\n", worst_ms);
}

int RunReal() {
  char wal_tmpl[] = "/tmp/nagano-drill-wal-XXXXXX";
  if (::mkdtemp(wal_tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  dispatch::ClusterOptions options;
  options.olympic.days = 2;
  options.olympic.num_sports = 2;
  options.olympic.events_per_sport = 2;
  options.olympic.athletes_per_event = 4;
  options.olympic.num_countries = 4;
  options.olympic.initial_news_articles = 2;
  options.backends = 3;
  options.wal_root = wal_tmpl;
  options.dispatch.probe_interval = 10 * kMillisecond;
  options.dispatch.drain_grace = 50 * kMillisecond;
  options.metrics.instance = "drill";

  dispatch::DispatcherCluster cluster(options);
  if (Status s = cluster.Start(); !s.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("Where do 120 requests land? (live dispatcher + 3 backends, "
              "real TCP)\n\n");
  RealTotals totals;
  ProbeReal(cluster, "all healthy", totals);

  if (Status s = cluster.KillBackend(0); !s.ok()) {
    std::fprintf(stderr, "kill failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ProbeReal(cluster, "b0 hard-killed (no drain)", totals);

  if (Status s = cluster.ReviveBackend(0); !s.ok()) {
    std::fprintf(stderr, "revive failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ProbeReal(cluster, "b0 revived from its WAL", totals);

  if (Status s = cluster.RollingRestart(1); !s.ok()) {
    std::fprintf(stderr, "rolling restart failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ProbeReal(cluster, "b1 rolling-upgraded (clean drain)", totals);
  ProbeReal(cluster, "everything recovered", totals);

  const dispatch::DispatcherStats stats = cluster.dispatcher().stats();
  std::printf("\ndispatcher: %llu connections routed, %llu failovers, "
              "%llu drains, %llu probe failures\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.drains),
              static_cast<unsigned long long>(stats.probe_failures));
  std::printf("\ntotals: %llu requests, %llu served, %llu failed "
              "(availability %.2f%%)\n",
              static_cast<unsigned long long>(totals.requests),
              static_cast<unsigned long long>(totals.requests - totals.failed),
              static_cast<unsigned long long>(totals.failed),
              totals.requests > 0
                  ? 100.0 * double(totals.requests - totals.failed) /
                        double(totals.requests)
                  : 0.0);
  cluster.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--real") == 0) return RunReal();
  }
  SimClock clock;
  RegionCosts costs = RegionCosts::OlympicDefault();

  // The outage script: each component dies for a window of simulated time,
  // overlapping so the drill descends the whole §4.2 chain.
  fault::FaultPlan plan;
  plan.seed = 1998;
  plan.rules = {
      Window("Tokyo", "node:0.0", 10, 70),       // one web node
      Window("Tokyo", "frame:0", 20, 70),        // a whole SP2 frame
      Window("Tokyo", "dispatcher:0", 30, 70),   // primary dispatcher
      Window("Tokyo", "dispatcher:3", 40, 70),   // its secondary too
      Window("Tokyo", "complex", 50, 70),        // the entire complex
  };
  fault::FaultInjector faults(std::move(plan), &clock);

  FabricOptions options = FabricOptions::Olympic(costs, &clock);
  options.faults = &faults;
  ServingFabric fabric(std::move(options));
  const size_t japan = costs.RegionIndex("Japan").value();

  std::printf("Where do 120 Japanese requests land? "
              "(12 MSIPR addresses x 10 rounds)\n\n");

  struct Stage {
    double at_s;
    const char* label;
  };
  const Stage stages[] = {
      {5, "all healthy"},
      {15, "one Tokyo web node down"},
      {25, "a whole Tokyo SP2 frame down"},
      {35, "Tokyo dispatcher 0 down (secondary serves)"},
      {45, "dispatchers 0+3 down (addresses emigrate)"},
      {55, "Tokyo complex dark (cross-Pacific)"},
      {75, "everything recovered"},
  };
  for (const Stage& stage : stages) {
    const TimeNs target = static_cast<TimeNs>(stage.at_s * 1e9);
    clock.Advance(target - clock.Now());
    Probe(fabric, japan, stage.label);
  }

  std::printf("\nOperator traffic shifting (stop advertising Tokyo "
              "addresses, 1/12 each):\n\n");
  for (int drop = 0; drop <= 6; drop += 2) {
    for (int a = 0; a < drop; ++a) (void)fabric.SetAdvertised("Tokyo", a, false);
    char label[64];
    std::snprintf(label, sizeof(label), "%d of 12 addresses withdrawn", drop);
    Probe(fabric, japan, label);
    for (int a = 0; a < drop; ++a) (void)fabric.SetAdvertised("Tokyo", a, true);
  }

  std::printf("\ninjected-fault timeline:\n%s",
              faults.TimelineString().c_str());

  const auto stats = fabric.stats();
  std::printf("\ntotals: %llu requests, %llu served, %llu failed "
              "(availability %.2f%%)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.failed),
              100.0 * stats.Availability());
  return 0;
}
