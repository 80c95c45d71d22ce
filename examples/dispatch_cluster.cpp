// dispatch_cluster — the rolling-upgrade harness (ISSUE 9 tentpole demo):
// a live three-tier topology (dispatch::Dispatcher fronting three full
// publishing pipelines over real TCP), upgraded one backend at a time with
// zero failed requests.
//
// The walkthrough:
//   1. Start the cluster; feed a few scoring results to every backend.
//   2. Capture reference page bytes through the dispatcher.
//   3. Under continuous keep-alive load, rolling-restart each backend:
//      announce via /healthz (the advisor steers away), drain its
//      connections cleanly (each closes after its next response and the
//      client reconnects to another backend), warm-restart from the WAL on
//      the same port, catch up, reinstate.
//   4. Report: every request served, every byte identical, N restarts.
//
// Run: build/examples/dispatch_cluster

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/cluster.h"
#include "http/client.h"

using namespace nagano;

int main() {
  char wal_tmpl[] = "/tmp/nagano-dispatch-demo-XXXXXX";
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
  options.dispatch.drain_grace = 100 * kMillisecond;
  options.metrics.instance = "demo";

  dispatch::DispatcherCluster cluster(options);
  if (Status s = cluster.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("dispatcher on :%u fronting %zu backends on real TCP:\n",
              unsigned(cluster.port()), cluster.backend_count());
  for (size_t i = 0; i < cluster.backend_count(); ++i) {
    std::printf("  b%zu -> 127.0.0.1:%u\n", i,
                unsigned(cluster.backend_port(i)));
  }

  // Identical content everywhere; quiesce so the caches agree.
  (void)cluster.RecordResultAll(1, 1, 1, 9.81);
  (void)cluster.RecordResultAll(2, 1, 2, 8.25);
  cluster.QuiesceAll();

  const std::vector<std::string> pages = {"/day/1", "/event/1", "/event/2",
                                          "/sport/1"};
  std::map<std::string, std::string> reference;
  for (const std::string& page : pages) {
    auto r = http::HttpClient::FetchOnce("127.0.0.1", cluster.port(), page);
    if (!r.ok() || r.value().status != 200) {
      std::fprintf(stderr, "reference fetch of %s failed\n", page.c_str());
      return 1;
    }
    reference[page] = r.value().body;
  }
  std::printf("\ncaptured %zu reference pages through the dispatcher\n\n",
              reference.size());

  // Continuous keep-alive load comparing every byte against the reference.
  std::atomic<uint64_t> served{0}, failed{0}, mismatched{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      http::HttpClient client("127.0.0.1", cluster.port());
      size_t i = size_t(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& page = pages[i++ % pages.size()];
        auto r = client.Get(page);
        if (!r.ok() || r.value().status != 200) {
          failed.fetch_add(1);
        } else if (r.value().body != reference[page]) {
          mismatched.fetch_add(1);
        } else {
          served.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }

  // The rolling upgrade, one backend at a time, under load.
  for (size_t i = 0; i < cluster.backend_count(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = cluster.RollingRestart(i);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!s.ok()) {
      std::fprintf(stderr, "rolling restart of b%zu failed: %s\n", i,
                   s.ToString().c_str());
      stop.store(true);
      for (auto& t : clients) t.join();
      return 1;
    }
    std::printf("b%zu drained, warm-restarted from WAL, reinstated "
                "(%.0f ms; %llu requests served so far, %llu failed)\n",
                i, ms, static_cast<unsigned long long>(served.load()),
                static_cast<unsigned long long>(failed.load()));
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& t : clients) t.join();

  std::printf("\nbackends after the upgrade:\n");
  for (const auto& b : cluster.dispatcher().snapshots()) {
    std::printf("  %-4s weight=%.3f connections routed=%llu open=%llu "
                "failed handoffs=%llu\n",
                b.name.c_str(), b.weight,
                static_cast<unsigned long long>(b.requests),
                static_cast<unsigned long long>(b.connections),
                static_cast<unsigned long long>(b.errors));
  }

  const dispatch::DispatcherStats stats = cluster.dispatcher().stats();
  std::printf("\nrolling upgrade of %llu backends under load:\n"
              "  %llu requests served, %llu failed, %llu byte mismatches\n"
              "  %llu drains, %llu failovers\n",
              static_cast<unsigned long long>(cluster.restarts()),
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(mismatched.load()),
              static_cast<unsigned long long>(stats.drains),
              static_cast<unsigned long long>(stats.failovers));
  const bool clean = failed.load() == 0 && mismatched.load() == 0;
  std::printf("  => %s\n", clean ? "zero failed requests, every page "
                                   "byte-identical throughout"
                                 : "DEGRADED (see counts above)");
  cluster.Stop();
  return clean ? 0 : 1;
}
