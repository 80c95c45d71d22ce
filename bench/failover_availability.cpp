// AVAIL — §4/§5: "the site was available 100% of the time", achieved by
// "elegant degradation, in which various points of failure within a
// complex were immediately accounted for, and traffic was smoothly
// redistributed to elements of the system that were still functioning."
//
// Method: one simulated day of traffic (1:500 of an average day) through
// the full fabric while a failure-injection schedule exercises every link
// of the §4.2 failover chain:
//   hour  2: a web node dies                (advisor pulls it)
//   hour  5: a whole SP2 frame dies         (pool shrinks)
//   hour  8: a Network Dispatcher box dies  (secondary takes its addresses)
//   hour 11: the Tokyo complex dies         (traffic crosses the Pacific)
//   hour 15: staged recovery begins
// Every request must still be served; the bench reports availability,
// retries, and where traffic actually went during each phase.
//
// --quick: a CI gate over REAL sockets instead of the sim — a live
// dispatch::DispatcherCluster (dispatcher + 3 backend pipelines on real
// TCP) under continuous keep-alive load while one backend is hard-killed,
// revived from its WAL, and another is rolling-upgraded through a clean
// drain. Gates: overall availability >= 99% and zero failed requests
// during the clean-drain upgrade. Writes the measured numbers to
// BENCH_dispatch.json and exits 1 on violation.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/fabric.h"
#include "cluster/net.h"
#include "cluster/sim.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dispatch/cluster.h"
#include "http/client.h"
#include "workload/profiles.h"

using namespace nagano;

namespace {

// The real-TCP availability gate (--quick). Wall-clock phases:
//   0 baseline          all three backends healthy
//   1 hard kill         b0's process-equivalent dies with no warning
//   2 revived           b0 back from its WAL
//   3 rolling upgrade   b1 drained cleanly, warm-restarted, reinstated
//   4 recovered         full strength again
int RunQuickRealGate() {
  bench::Header("AVAIL", "real-TCP availability gate (dispatcher tier)");

  char wal_tmpl[] = "/tmp/nagano-bench-dispatch-XXXXXX";
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
  options.metrics.instance = "bench";

  dispatch::DispatcherCluster cluster(options);
  if (Status s = cluster.Start(); !s.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  (void)cluster.RecordResultAll(1, 1, 1, 9.81);
  cluster.QuiesceAll();

  constexpr size_t kPhases = 5;
  const char* phase_names[kPhases] = {
      "baseline (all healthy)", "b0 hard-killed (no drain)",
      "b0 revived from its WAL", "b1 rolling upgrade (clean drain)",
      "recovered (full strength)"};
  std::atomic<size_t> phase{0};
  std::atomic<uint64_t> requests[kPhases] = {};
  std::atomic<uint64_t> failed[kPhases] = {};

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      http::HttpClient client("127.0.0.1", cluster.port());
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t p = phase.load(std::memory_order_relaxed);
        auto r = client.Get("/day/1");
        ++requests[p];
        if (!r.ok() || r.value().status != 200) ++failed[p];
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  const auto settle = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  };

  settle();  // phase 0: baseline
  phase.store(1);
  if (Status s = cluster.KillBackend(0); !s.ok()) {
    std::fprintf(stderr, "kill failed: %s\n", s.ToString().c_str());
    return 1;
  }
  settle();
  phase.store(2);
  if (Status s = cluster.ReviveBackend(0); !s.ok()) {
    std::fprintf(stderr, "revive failed: %s\n", s.ToString().c_str());
    return 1;
  }
  settle();
  phase.store(3);
  if (Status s = cluster.RollingRestart(1); !s.ok()) {
    std::fprintf(stderr, "rolling restart failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  phase.store(4);
  settle();
  stop.store(true);
  for (auto& t : clients) t.join();

  uint64_t total = 0, total_failed = 0;
  bench::Section("per-phase availability (real TCP, wall clock)");
  bench::Row("%-36s %12s %10s", "phase", "requests", "failed");
  for (size_t p = 0; p < kPhases; ++p) {
    bench::Row("%-36s %12llu %10llu", phase_names[p],
               static_cast<unsigned long long>(requests[p].load()),
               static_cast<unsigned long long>(failed[p].load()));
    total += requests[p].load();
    total_failed += failed[p].load();
  }
  const double availability =
      total > 0 ? double(total - total_failed) / double(total) : 0.0;
  const dispatch::DispatcherStats stats = cluster.dispatcher().stats();
  bench::Section("totals");
  bench::Row("requests %llu, failed %llu, failovers %llu, drains %llu, "
             "probe failures %llu",
             static_cast<unsigned long long>(total),
             static_cast<unsigned long long>(total_failed),
             static_cast<unsigned long long>(stats.failovers),
             static_cast<unsigned long long>(stats.drains),
             static_cast<unsigned long long>(stats.probe_failures));
  bench::Compare("availability through kill + upgrade", 100.0,
                 100.0 * availability, "%");
  bench::CompareText("clean drain lost zero requests", "yes",
                     failed[3].load() == 0 ? "yes" : "NO");

  std::ofstream json("BENCH_dispatch.json");
  json << "{\n  \"bench\": \"failover_availability --quick\",\n"
       << "  \"transport\": \"real_tcp\",\n  \"backends\": 3,\n"
       << "  \"phases\": [\n";
  for (size_t p = 0; p < kPhases; ++p) {
    json << "    {\"phase\": \"" << phase_names[p]
         << "\", \"requests\": " << requests[p].load()
         << ", \"failed\": " << failed[p].load() << "}"
         << (p + 1 < kPhases ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"requests\": " << total << ",\n"
       << "  \"failed\": " << total_failed << ",\n"
       << "  \"availability\": " << availability << ",\n"
       << "  \"drain_phase_failed\": " << failed[3].load() << ",\n"
       << "  \"failovers\": " << stats.failovers << ",\n"
       << "  \"drains\": " << stats.drains << ",\n"
       << "  \"probe_failures\": " << stats.probe_failures << ",\n"
       << "  \"restarts\": " << cluster.restarts() << "\n}\n";
  json.close();
  bench::Row("wrote BENCH_dispatch.json");
  cluster.Stop();

  if (availability < 0.99) {
    std::fprintf(stderr,
                 "FAIL: real-TCP availability %.4f through kill + upgrade "
                 "(need >= 0.99)\n",
                 availability);
    return 1;
  }
  if (failed[3].load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu requests failed during the clean-drain rolling "
                 "upgrade (need 0)\n",
                 static_cast<unsigned long long>(failed[3].load()));
    return 1;
  }
  bench::Row("quick gate passed: %.2f%% availability, clean drain lost 0",
             100.0 * availability);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return RunQuickRealGate();
  }
  bench::Header("AVAIL", "availability under cascading failures");

  SimClock clock;
  cluster::EventQueue queue(&clock);
  cluster::RegionCosts costs = cluster::RegionCosts::OlympicDefault();
  cluster::ServingFabric fabric(cluster::FabricOptions::Olympic(
      cluster::RegionCosts::OlympicDefault(), &clock));

  // Failure schedule (paper §4.2 failover chain, exercised top to bottom).
  struct Phase {
    TimeNs at;
    const char* what;
  };
  const Phase phases[] = {
      {2 * kHour, "node Tokyo[0][0] fails"},
      {5 * kHour, "frame Tokyo[1] fails"},
      {8 * kHour, "dispatcher Tokyo[0] fails"},
      {11 * kHour, "complex Tokyo fails entirely"},
      {15 * kHour, "staged recovery"},
  };
  queue.At(phases[0].at, [&] { (void)fabric.FailNode("Tokyo", 0, 0); });
  queue.At(phases[1].at, [&] { (void)fabric.FailFrame("Tokyo", 1); });
  queue.At(phases[2].at, [&] { (void)fabric.FailDispatcher("Tokyo", 0); });
  queue.At(phases[3].at, [&] { (void)fabric.FailComplex("Tokyo"); });
  queue.At(phases[4].at, [&] {
    (void)fabric.RecoverComplex("Tokyo");
    (void)fabric.RecoverDispatcher("Tokyo", 0);
    (void)fabric.RecoverFrame("Tokyo", 1);
    (void)fabric.RecoverNode("Tokyo", 0, 0);
  });

  const size_t tokyo = costs.ComplexIndex("Tokyo").value();
  const size_t japan = costs.RegionIndex("Japan").value();

  const double day_hits = workload::TotalHitsMillions() * 1e6 / 16.0;
  const auto total = static_cast<uint64_t>(day_hits / 500.0);
  const TimeNs step = kDay / static_cast<TimeNs>(total);

  Rng rng(4);
  Histogram japan_response_s;
  uint64_t japan_requests = 0, japan_from_tokyo = 0, retries = 0;
  std::vector<uint64_t> per_phase_failed(std::size(phases) + 1, 0);
  std::vector<uint64_t> per_phase_total(std::size(phases) + 1, 0);

  auto phase_of = [&](TimeNs t) {
    size_t p = 0;
    while (p < std::size(phases) && t >= phases[p].at) ++p;
    return p;
  };

  for (uint64_t i = 0; i < total; ++i) {
    const TimeNs t = static_cast<TimeNs>(i) * step;
    queue.RunUntil(t);
    const size_t region = workload::SampleRegion(rng);
    const auto out =
        fabric.Route(region, FromMillis(5), 10 * 1024, cluster::Modem28k8());
    const size_t phase = phase_of(t);
    ++per_phase_total[phase];
    if (!out.served) ++per_phase_failed[phase];
    retries += static_cast<uint64_t>(out.retries);
    if (region == japan) {
      ++japan_requests;
      japan_response_s.Add(ToSeconds(out.response_time));
      if (out.served && out.complex_index == tokyo) ++japan_from_tokyo;
    }
  }

  const auto stats = fabric.stats();
  bench::Section("per-phase availability");
  bench::Row("%-36s %12s %10s", "phase", "requests", "failed");
  const char* phase_names[] = {"baseline (all healthy)",
                               phases[0].what,
                               phases[1].what,
                               phases[2].what,
                               phases[3].what,
                               phases[4].what};
  for (size_t p = 0; p < std::size(per_phase_total); ++p) {
    bench::Row("%-36s %12llu %10llu", phase_names[p],
               static_cast<unsigned long long>(per_phase_total[p]),
               static_cast<unsigned long long>(per_phase_failed[p]));
  }

  bench::Section("totals");
  bench::Row("requests %llu, served %llu, failed %llu, dead-node retries %llu",
             static_cast<unsigned long long>(stats.requests),
             static_cast<unsigned long long>(stats.served),
             static_cast<unsigned long long>(stats.failed),
             static_cast<unsigned long long>(retries));
  bench::Row("Japan served from Tokyo: %.1f%% (complex was down 4 of 24 h)",
             100.0 * static_cast<double>(japan_from_tokyo) /
                 static_cast<double>(japan_requests));
  bench::Row("Japan response: %s", japan_response_s.Summary().c_str());

  bench::Section("paper comparison");
  bench::Compare("availability over the day", 100.0,
                 100.0 * stats.Availability(), "%");
  bench::CompareText("elegant degradation (no phase lost requests)", "yes",
                     stats.failed == 0 ? "yes" : "NO");
  // Even with Tokyo dark, Japanese users were served (from the US) within
  // the 30 s modem budget.
  bench::Compare("worst Japan response during outage", 30.0,
                 japan_response_s.max(), "s");
  return 0;
}
