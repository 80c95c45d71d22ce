// Real-socket dispatcher tier: connection handoff, weighted routing, advisor
// health, connection-level failover, draining, and the rolling-upgrade
// drill — all over live TCP, wall-clock time, no sim.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "dispatch/cluster.h"
#include "dispatch/dispatcher.h"
#include "http/client.h"
#include "http/server.h"

namespace nagano::dispatch {
namespace {

using http::HttpClient;
using http::HttpRequest;
using http::HttpResponse;
using http::HttpServer;

// A fresh /tmp directory for a cluster's WAL streams, removed with its
// contents when the test ends. Declare it before the cluster, so the
// cluster closes its streams first.
class WalTempDir {
 public:
  WalTempDir() {
    char tmpl[] = "/tmp/nagano-dispatch-wal-XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    if (dir != nullptr) path_ = dir;
  }
  ~WalTempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  WalTempDir(const WalTempDir&) = delete;
  WalTempDir& operator=(const WalTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A raw echo-ish backend: every path answers with the backend's name
// ("hello from <name>"), /healthz with "ok"; both after an optional
// artificial service delay, the knob the weighted-balance test turns.
class FakeBackend {
 public:
  explicit FakeBackend(std::string name, TimeNs delay = 0)
      : name_(std::move(name)), delay_(delay) {
    server_ = std::make_unique<HttpServer>([this](const HttpRequest& request) {
      if (delay_ > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay_));
      }
      if (request.Path() == "/healthz") {
        return HttpResponse::Ok("ok\n", "text/plain");
      }
      served_.fetch_add(1, std::memory_order_relaxed);
      return HttpResponse::Ok(Greeting(name_), "text/plain");
    });
  }

  static std::string Greeting(const std::string& name) {
    return "hello from " + name + "\n";
  }

  void Start() { ASSERT_TRUE(server_->Start().ok()); }
  void Stop() { server_->Stop(); }
  uint16_t port() const { return server_->port(); }
  HttpServer* server() { return server_.get(); }
  uint64_t served() const { return served_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  BackendAddress address() {
    return {"127.0.0.1", port(), name_, server_.get()};
  }

 private:
  std::string name_;
  TimeNs delay_;
  std::atomic<uint64_t> served_{0};
  std::unique_ptr<HttpServer> server_;
};

// The backend that answered, read from the FakeBackend body.
std::string AnsweredBy(const HttpResponse& response) {
  const std::string prefix = "hello from ";
  if (response.body.rfind(prefix, 0) != 0) return "";
  std::string name = response.body.substr(prefix.size());
  if (!name.empty() && name.back() == '\n') name.pop_back();
  return name;
}

DispatcherOptions FastProbeOptions() {
  DispatcherOptions options;
  options.probe_interval = 10 * kMillisecond;
  options.probe_timeout = 200 * kMillisecond;
  options.drain_grace = 50 * kMillisecond;
  return options;
}

TEST(DispatcherTest, HandsOffAndServesKeepAliveConnectionsDirectly) {
  FakeBackend a("alpha"), b("beta");
  a.Start();
  b.Start();

  Dispatcher dispatcher({a.address(), b.address()}, FastProbeOptions());
  ASSERT_TRUE(dispatcher.Start().ok());

  HttpClient client("127.0.0.1", dispatcher.port());
  std::string serving_backend;
  for (int i = 0; i < 20; ++i) {
    auto r = client.Get("/page");
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().status, 200);
    const std::string backend = AnsweredBy(r.value());
    if (serving_backend.empty()) serving_backend = backend;
    // The connection belongs to one backend for its whole life.
    EXPECT_EQ(backend, serving_backend);
  }
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(a.served() + b.served(), 20u);

  // One client connection accepted and routed; the backend adopted it and
  // answered all twenty requests on it.
  EXPECT_EQ(dispatcher.stats().connections, 1u);
  EXPECT_EQ(dispatcher.stats().failovers, 0u);
  const size_t index = serving_backend == "alpha" ? 0 : 1;
  FakeBackend& owner = index == 0 ? a : b;
  EXPECT_EQ(dispatcher.snapshot(index).requests, 1u);
  EXPECT_EQ(dispatcher.snapshot(index).connections, 1u);
  EXPECT_EQ(dispatcher.snapshot(1 - index).requests, 0u);
  EXPECT_EQ(owner.server()->adopted_connections(), 1u);

  dispatcher.Stop();
  a.Stop();
  b.Stop();
}

TEST(DispatcherTest, SnapshotsAndRegistryReportBackends) {
  metrics::MetricRegistry registry;
  FakeBackend a("alpha");
  a.Start();
  DispatcherOptions options = FastProbeOptions();
  options.metrics.registry = &registry;
  options.metrics.instance = "frontS";
  Dispatcher dispatcher({a.address()}, options);
  ASSERT_TRUE(dispatcher.Start().ok());
  auto r = HttpClient::FetchOnce("127.0.0.1", dispatcher.port(), "/page");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(AnsweredBy(r.value()), "alpha");

  const std::vector<BackendSnapshot> snaps = dispatcher.snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "alpha");
  EXPECT_EQ(snaps[0].port, a.port());
  EXPECT_EQ(snaps[0].state, BackendState::kUp);
  EXPECT_TRUE(snaps[0].healthy);
  EXPECT_GT(snaps[0].weight, 0.0);
  EXPECT_EQ(snaps[0].requests, 1u);

  // The same per-backend state as registry cells.
  double weight = -1, routed = -1;
  for (const metrics::Sample& sample : registry.Snapshot()) {
    bool alpha = false;
    for (const auto& [key, value] : sample.labels) {
      if (key == "backend" && value == "alpha") alpha = true;
    }
    if (!alpha) continue;
    if (sample.name == "nagano_dispatch_backend_weight") weight = sample.value;
    if (sample.name == "nagano_dispatch_backend_requests_total") {
      routed = sample.value;
    }
  }
  EXPECT_GT(weight, 0.0);
  EXPECT_EQ(routed, 1.0);
  dispatcher.Stop();
  a.Stop();
}

TEST(DispatcherTest, WeightedBalanceConvergesOnAdvisorWeights) {
  // One backend is an order of magnitude slower per request, /healthz
  // included: the advisor's probe latency EWMA must push its weight — and
  // its traffic share — down.
  FakeBackend fast1("fast1"), fast2("fast2");
  FakeBackend slow("slow", /*delay=*/4 * kMillisecond);
  fast1.Start();
  fast2.Start();
  slow.Start();

  Dispatcher dispatcher({fast1.address(), fast2.address(), slow.address()},
                        FastProbeOptions());
  ASSERT_TRUE(dispatcher.Start().ok());

  // Short-lived connections: each request is a new connection and a new
  // pick, so the traffic split tracks the weights.
  for (int i = 0; i < 300; ++i) {
    auto r = HttpClient::FetchOnce("127.0.0.1", dispatcher.port(), "/page");
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_EQ(r.value().status, 200);
  }

  const BackendSnapshot f1 = dispatcher.snapshot(0);
  const BackendSnapshot f2 = dispatcher.snapshot(1);
  const BackendSnapshot sl = dispatcher.snapshot(2);
  // The advisor priced the slow backend down...
  EXPECT_LT(sl.weight, f1.weight);
  EXPECT_LT(sl.weight, f2.weight);
  EXPECT_GT(sl.latency_ewma_ms, f1.latency_ewma_ms);
  // ...and the weighted power-of-two-choices followed: each fast backend
  // carried more connections than the slow one.
  EXPECT_GT(f1.requests, sl.requests);
  EXPECT_GT(f2.requests, sl.requests);
  EXPECT_EQ(f1.requests + f2.requests + sl.requests, 300u);

  dispatcher.Stop();
  fast1.Stop();
  fast2.Stop();
  slow.Stop();
}

TEST(DispatcherTest, KilledBackendReroutesWithinProbeInterval) {
  FakeBackend a("a"), b("b"), c("c");
  a.Start();
  b.Start();
  c.Start();

  Dispatcher dispatcher({a.address(), b.address(), c.address()},
                        FastProbeOptions());
  ASSERT_TRUE(dispatcher.Start().ok());

  std::atomic<uint64_t> ok{0}, failed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", dispatcher.port());
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client.Get("/page");
        if (r.ok() && r.value().status == 200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  a.Stop();  // hard kill mid-load: connections die, handoffs are refused

  // The advisor must eject the dead backend within ~one probe interval.
  const auto eject_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (dispatcher.snapshot(0).healthy &&
         std::chrono::steady_clock::now() < eject_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(dispatcher.snapshot(0).healthy);

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : clients) t.join();

  const double total = double(ok.load() + failed.load());
  ASSERT_GT(total, 0.0);
  const double availability = double(ok.load()) / total;
  // A client whose connection died retries once on a fresh one, which the
  // dispatcher hands to a live backend: >= 99% end-to-end.
  EXPECT_GE(availability, 0.99) << "ok=" << ok << " failed=" << failed;
  // The killed backend's clients were rerouted, not stranded.
  EXPECT_GT(dispatcher.snapshot(1).requests + dispatcher.snapshot(2).requests,
            0u);

  dispatcher.Stop();
  b.Stop();
  c.Stop();
}

TEST(DispatcherTest, HandoffToStoppedBackendFailsOverToLiveOne) {
  FakeBackend a("alpha"), b("beta");
  a.Start();
  b.Start();
  DispatcherOptions options = FastProbeOptions();
  // The advisor stays asleep: only the failed handoff can reveal the death.
  options.probe_interval = 60 * kSecond;
  Dispatcher dispatcher({a.address(), b.address()}, options);
  ASSERT_TRUE(dispatcher.Start().ok());
  ASSERT_TRUE(dispatcher.snapshot(0).healthy);
  a.Stop();

  // Until alpha is picked once, every connection might land there.
  for (int i = 0; i < 64 && dispatcher.stats().failovers == 0; ++i) {
    auto r = HttpClient::FetchOnce("127.0.0.1", dispatcher.port(), "/page");
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_EQ(r.value().status, 200);
    EXPECT_EQ(AnsweredBy(r.value()), "beta");
  }
  EXPECT_EQ(dispatcher.stats().failovers, 1u);
  EXPECT_EQ(dispatcher.stats().no_backend, 0u);
  const BackendSnapshot alpha = dispatcher.snapshot(0);
  EXPECT_FALSE(alpha.healthy);
  EXPECT_EQ(alpha.errors, 1u);
  EXPECT_EQ(alpha.requests, 0u);

  dispatcher.Stop();
  b.Stop();
}

TEST(DispatcherTest, DrainClosesKeepAliveConnectionAfterNextResponse) {
  FakeBackend a("alpha"), b("beta");
  a.Start();
  b.Start();
  DispatcherOptions options = FastProbeOptions();
  // Long enough that the idle sweep never beats the client's next request.
  options.drain_grace = 5 * kSecond;
  Dispatcher dispatcher({a.address(), b.address()}, options);
  ASSERT_TRUE(dispatcher.Start().ok());

  HttpClient client("127.0.0.1", dispatcher.port());
  auto first = client.Get("/page");
  ASSERT_TRUE(first.ok());
  const std::string home = AnsweredBy(first.value());
  const size_t index = home == "alpha" ? 0 : 1;
  FakeBackend& drained = index == 0 ? a : b;

  Status drain_status = Status::Ok();
  std::thread drainer([&] { drain_status = dispatcher.Drain(index); });
  ASSERT_TRUE(drainer.joinable());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!drained.server()->draining() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(drained.server()->draining());

  // The next response still comes from the draining backend, and tells the
  // client to close...
  auto last = client.Get("/page");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(AnsweredBy(last.value()), home);
  EXPECT_EQ(last.value().headers.at("Connection"), "close");
  // ...so the one after reconnects through the dispatcher to the other.
  auto moved = client.Get("/page");
  ASSERT_TRUE(moved.ok()) << moved.status().message();
  EXPECT_EQ(moved.value().status, 200);
  EXPECT_NE(AnsweredBy(moved.value()), home);
  EXPECT_EQ(client.stale_reconnects(), 0u);

  drainer.join();
  EXPECT_TRUE(drain_status.ok()) << drain_status.message();
  EXPECT_EQ(dispatcher.snapshot(index).state, BackendState::kOut);
  EXPECT_EQ(dispatcher.snapshot(index).connections, 0u);
  EXPECT_EQ(dispatcher.stats().failovers, 0u);

  dispatcher.Stop();
  a.Stop();
  b.Stop();
}

TEST(DispatcherTest, DrainCompletesWithZeroAbortedRequests) {
  FakeBackend a("a"), b("b"), c("c");
  a.Start();
  b.Start();
  c.Start();

  Dispatcher dispatcher({a.address(), b.address(), c.address()},
                        FastProbeOptions());
  ASSERT_TRUE(dispatcher.Start().ok());

  std::atomic<uint64_t> ok{0}, failed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", dispatcher.port());
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client.Get("/page");
        if (r.ok() && r.value().status == 200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(dispatcher.Drain(0).ok());
  EXPECT_EQ(dispatcher.snapshot(0).state, BackendState::kOut);
  EXPECT_EQ(dispatcher.snapshot(0).connections, 0u);

  // Traffic continues on the survivors; the drained backend gets none.
  const uint64_t drained_requests = dispatcher.snapshot(0).requests;
  const uint64_t drained_served = a.served();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(dispatcher.snapshot(0).requests, drained_requests);
  EXPECT_EQ(a.served(), drained_served);

  // And back: reinstate rejoins within a probe cycle. The long-lived
  // clients stay on the survivors (a connection keeps its backend), so
  // drive fresh connections — those re-enter the weighted pick and reach
  // the reinstated backend.
  ASSERT_TRUE(dispatcher.Reinstate(0).ok());
  ASSERT_TRUE(dispatcher.WaitHealthy(0, 2 * kSecond).ok());
  EXPECT_FALSE(a.server()->draining());
  for (int i = 0; i < 60; ++i) {
    auto r = HttpClient::FetchOnce("127.0.0.1", dispatcher.port(), "/page");
    ASSERT_TRUE(r.ok());
  }

  stop.store(true);
  for (auto& t : clients) t.join();

  // The clean-drain contract: zero failed requests across the whole drill.
  EXPECT_EQ(failed.load(), 0u) << "ok=" << ok;
  EXPECT_GT(dispatcher.snapshot(0).requests, drained_requests)
      << "reinstated backend never rejoined rotation";
  EXPECT_GE(dispatcher.stats().drains, 1u);

  dispatcher.Stop();
  a.Stop();
  b.Stop();
  c.Stop();
}

TEST(DispatcherTest, FaultSitesKillHandoffAndProbePaths) {
  metrics::MetricRegistry registry;
  fault::FaultPlan plan;
  // One failed handoff to alpha: the connection must go to beta and the
  // client must not notice.
  fault::FaultRule handoff_kill;
  handoff_kill.subsystem = "dispatch";
  handoff_kill.site = "frontA/alpha";
  handoff_kill.operation = "handoff";
  handoff_kill.max_fires = 1;
  plan.rules.push_back(handoff_kill);
  // A dropped advisor probe (one shot, counted, no lasting harm).
  fault::FaultRule probe_kill;
  probe_kill.subsystem = "dispatch";
  probe_kill.site = "frontA/alpha";
  probe_kill.operation = "probe";
  probe_kill.skip_first = 2;
  probe_kill.max_fires = 1;
  plan.rules.push_back(probe_kill);
  plan.metrics.registry = &registry;
  fault::FaultInjector faults(plan);

  FakeBackend a("alpha"), b("beta");
  a.Start();
  b.Start();

  DispatcherOptions options = FastProbeOptions();
  options.faults = &faults;
  options.metrics.registry = &registry;
  options.metrics.instance = "frontA";
  Dispatcher dispatcher({a.address(), b.address()}, options);
  ASSERT_TRUE(dispatcher.Start().ok());

  uint64_t succeeded = 0;
  for (int i = 0; i < 40; ++i) {
    auto r = HttpClient::FetchOnce("127.0.0.1", dispatcher.port(), "/page");
    if (r.ok() && r.value().status == 200) ++succeeded;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Every request survived: the handoff kill triggered a failover, not a
  // client-visible error.
  EXPECT_EQ(succeeded, 40u);
  EXPECT_GE(dispatcher.stats().failovers, 1u);
  EXPECT_GE(dispatcher.snapshot(0).errors, 1u);
  EXPECT_GE(faults.injected_total(), 1u);

  dispatcher.Stop();
  a.Stop();
  b.Stop();
}

TEST(DispatcherTest, WindowOutageTakesBackendOutAndBack) {
  metrics::MetricRegistry registry;
  // alpha is dead for a wall-clock window starting now; the advisor must
  // treat it as down (probes fail) and no connection may be handed to it.
  fault::FaultPlan plan;
  fault::FaultRule outage;
  outage.subsystem = "dispatch";
  outage.site = "frontW/alpha";
  outage.operation = "backend";
  outage.kind = fault::FaultKind::kWindow;
  outage.from = 0;  // immediately...
  // ...until shortly after start; RealClock now is epoch-based, so take
  // "now + 400ms" from the wall clock.
  outage.until = RealClock().Now() + 400 * kMillisecond;
  plan.rules.push_back(outage);
  plan.metrics.registry = &registry;
  fault::FaultInjector faults(plan);

  FakeBackend a("alpha"), b("beta");
  a.Start();
  b.Start();

  DispatcherOptions options = FastProbeOptions();
  options.faults = &faults;
  options.metrics.registry = &registry;
  options.metrics.instance = "frontW";
  Dispatcher dispatcher({a.address(), b.address()}, options);
  ASSERT_TRUE(dispatcher.Start().ok());

  // During the outage window every connection lands on beta.
  for (int i = 0; i < 20; ++i) {
    auto r = HttpClient::FetchOnce("127.0.0.1", dispatcher.port(), "/page");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(AnsweredBy(r.value()), "beta");
  }
  EXPECT_FALSE(dispatcher.snapshot(0).healthy);

  // After the window closes the advisor re-admits alpha.
  ASSERT_TRUE(dispatcher.WaitHealthy(0, 3 * kSecond).ok());
  // Both edges of the outage are on the injected-fault timeline.
  EXPECT_NE(faults.TimelineString().find("frontW/alpha"), std::string::npos);

  dispatcher.Stop();
  a.Stop();
  b.Stop();
}

// ---------------------------------------------------------------------------
// The rolling-upgrade drill over the full three-tier topology.
// ---------------------------------------------------------------------------

ClusterOptions SmallClusterOptions(const std::string& wal_root) {
  ClusterOptions options;
  options.olympic.days = 2;
  options.olympic.num_sports = 2;
  options.olympic.events_per_sport = 2;
  options.olympic.athletes_per_event = 4;
  options.olympic.num_countries = 4;
  options.olympic.initial_news_articles = 2;
  options.backends = 3;
  options.wal_root = wal_root;
  options.dispatch = FastProbeOptions();
  return options;
}

TEST(DispatcherClusterTest, RollingUpgradeServesByteIdenticalPages) {
  const WalTempDir wal_root;
  ASSERT_FALSE(wal_root.path().empty());
  DispatcherCluster cluster(SmallClusterOptions(wal_root.path()));
  ASSERT_TRUE(cluster.Start().ok());

  // Commit a few results everywhere, then settle: every backend now serves
  // identical content.
  ASSERT_TRUE(cluster.RecordResultAll(1, 1, 1, 9.81).ok());
  ASSERT_TRUE(cluster.RecordResultAll(2, 1, 2, 8.25).ok());
  cluster.QuiesceAll();

  // Reference bytes through the dispatcher (whichever backend answers).
  const std::vector<std::string> pages = {"/day/1", "/event/1", "/event/2",
                                          "/sport/1"};
  std::map<std::string, std::string> reference;
  for (const std::string& page : pages) {
    auto r = HttpClient::FetchOnce("127.0.0.1", cluster.port(), page);
    ASSERT_TRUE(r.ok()) << page << ": " << r.status().message();
    ASSERT_EQ(r.value().status, 200) << page;
    reference[page] = r.value().body;
    ASSERT_FALSE(reference[page].empty()) << page;
  }

  // Continuous keep-alive load comparing every answer to the reference,
  // while two of the three backends are rolling-restarted underneath.
  std::atomic<uint64_t> ok{0}, failed{0}, mismatched{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", cluster.port());
      size_t i = size_t(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& page = pages[i++ % pages.size()];
        auto r = client.Get(page);
        if (!r.ok() || r.value().status != 200) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.value().body != reference[page]) {
          mismatched.fetch_add(1, std::memory_order_relaxed);
        } else {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status first = cluster.RollingRestart(0);
  EXPECT_TRUE(first.ok()) << first.message();
  Status second = cluster.RollingRestart(1);
  EXPECT_TRUE(second.ok()) << second.message();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(cluster.restarts(), 2u);
  EXPECT_GT(ok.load(), 0u);
  // The rolling-upgrade contract: every answer during the whole drill was
  // served, and byte-identical to the pre-drill reference.
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(mismatched.load(), 0u);
  // The restarted backends really did leave and rejoin rotation.
  EXPECT_GE(cluster.dispatcher().stats().drains, 2u);

  cluster.Stop();
}

// The zero-copy hit path holds end to end with the advisor probing: the
// /healthz answers are served by reference too, so a cluster serving only
// cache hits materializes no response body anywhere.
TEST(DispatcherClusterTest, ProbedHitOnlyClusterCopiesNoBodies) {
  const WalTempDir wal_root;
  ASSERT_FALSE(wal_root.path().empty());
  metrics::MetricRegistry registry;
  ClusterOptions options = SmallClusterOptions(wal_root.path());
  options.backends = 2;
  options.metrics.registry = &registry;
  DispatcherCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  const auto sum = [&registry](std::string_view name) {
    double total = 0;
    for (const metrics::Sample& sample : registry.Snapshot()) {
      if (sample.name == name) total += sample.value;
    }
    return total;
  };

  HttpClient client("127.0.0.1", cluster.port());
  const std::vector<std::string> pages = {"/day/1", "/event/1", "/sport/1"};
  uint64_t reads = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    auto r = client.Get(pages[reads++ % pages.size()]);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_EQ(r.value().status, 200);
    EXPECT_EQ(r.value().headers.at("X-Cache"), "HIT");
  }
  // At a 10 ms probe interval the advisor has probed each backend many
  // times; every HTTP request beyond the reads is a probe (a read is served
  // by one server: the backend the dispatcher handed the connection to).
  EXPECT_EQ(cluster.dispatcher().stats().probe_failures, 0u);
  const double probes = sum("nagano_http_requests_total") - 1.0 * double(reads);
  EXPECT_GE(probes, 10.0);
  EXPECT_EQ(sum("nagano_http_body_copies_total"), 0.0);
  cluster.Stop();
}

TEST(DispatcherClusterTest, FeedRefusedWhileNodeIsDown) {
  const WalTempDir wal_root;
  ASSERT_FALSE(wal_root.path().empty());
  ClusterOptions options = SmallClusterOptions(wal_root.path());
  options.backends = 2;
  DispatcherCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  // A drained-but-not-restarted node: site still up, so the feed is fine...
  ASSERT_TRUE(cluster.RecordResultAll(1, 1, 1, 5.0).ok());
  // ...and out-of-range restarts are rejected cleanly.
  EXPECT_FALSE(cluster.RollingRestart(7).ok());
  cluster.Stop();
}

}  // namespace
}  // namespace nagano::dispatch
