// dispatch::Dispatcher — the real-socket Network Dispatcher tier (ISSUE 9).
//
// The paper's topology put SP2 serving frames behind IBM Network Dispatchers
// that spread client TCP connections across front ends and steered around
// dead ones; until now that tier existed only inside the discrete-event
// cluster sim. This subsystem is the promotion to live TCP: a standalone
// L4/L7 front process that reuses the multi-reactor epoll core of
// http::HttpServer to accept client connections and proxy each request over
// a real socket to one of N backend HTTP servers.
//
//  * Advisor-driven health. A background advisor thread polls every
//    backend's /healthz each probe_interval and folds in the live per-
//    backend latency/error observations the proxy path records, producing
//    an EWMA-smoothed weight per backend:
//        weight = healthy ? max(0.01, 1 - err_ewma) / (0.5 + lat_ewma_ms)
//               : 0
//    — the Dispatcher analog of the paper's advisor-fed routing tables.
//
//  * Weighted routing. New connections pick a backend by power-of-two-
//    choices over the advisor weights: two weighted draws, and the winner
//    is the candidate with the lower inflight/weight ratio. The chosen
//    backend is pinned to the client connection (an L4-style affinity): the
//    pin lives in the connection's ConnectionContext and carries a
//    dedicated keep-alive HttpClient, so a persistent client costs one
//    backend connect for its whole life.
//
//  * Connection draining. Drain(i) moves a backend kUp -> kDraining (no new
//    assignments; pinned connections keep using it), waits a grace period,
//    then bumps the backend's epoch — the lazy unpin: every pinned lease
//    re-validates per request and re-picks on a stale epoch — waits for
//    in-flight proxied requests to hit zero, and lands at kOut. Client
//    connections are never closed, which is why a clean drain aborts zero
//    in-flight requests.
//
//  * Failover. A proxy error marks the backend unhealthy on the spot (the
//    advisor re-admits it on its next successful probe) and the request
//    retries on a different backend, up to failover_attempts times, before
//    surfacing a 502.
//
// Fault sites (subsystem "dispatch", site "<instance>/<backend-name>"):
//   "connect"      kill establishing the backend connection
//   "proxy_write"  kill the proxied request before it is sent
//   "proxy_read"   kill the proxied response after the backend answered
//   "probe"        drop one advisor health probe
//   "backend"      kWindow rule: the backend is dead while active (both the
//                  proxy path and the advisor see the outage)
//
// Metrics (registry, site label = instance): nagano_dispatch_requests_total,
// _failovers_total, _no_backend_total, _drains_total, _probe_failures_total,
// _backend_bytes_{out,in}_total, and per-backend (extra label backend=<name>)
// _backend_requests_total, _backend_errors_total, _backend_weight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/rng.h"
#include "http/client.h"
#include "http/server.h"

namespace nagano::dispatch {

// One backend HTTP server the dispatcher fronts.
struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string name;  // label for metrics/fault sites; "b<k>" when empty
};

// Backend lifecycle: kUp serves new and pinned traffic, kDraining serves
// only already-pinned traffic, kOut serves nothing (Reinstate to rejoin).
enum class BackendState : uint8_t { kUp, kDraining, kOut };
std::string_view BackendStateName(BackendState state);

struct DispatcherOptions : OptionsBase {
  // The front end's reactor config (bind address, port, reactors, accept
  // mode, idle sweep...). The dispatcher installs its own ContextHandler.
  http::HttpServer::Options http;

  // Advisor cadence and probe socket bound. A dead backend is detected
  // within one probe_interval; a hung one within probe_timeout.
  TimeNs probe_interval = 25 * kMillisecond;
  TimeNs probe_timeout = 250 * kMillisecond;

  // Socket bounds for the proxy path's backend connections.
  TimeNs connect_timeout = 500 * kMillisecond;
  TimeNs io_timeout = 2 * kSecond;

  // EWMA smoothing for the advisor's latency / error-rate folds.
  double latency_alpha = 0.3;
  double error_alpha = 0.3;

  // Drain(i): grace before the epoch bump unpins keep-alive connections,
  // then bound on waiting for in-flight proxied requests to reach zero.
  TimeNs drain_grace = 200 * kMillisecond;
  TimeNs drain_deadline = 2 * kSecond;

  // Extra backends tried after a proxy failure before answering 502.
  size_t failover_attempts = 2;

  // Seeds the per-thread power-of-two-choices draws.
  uint64_t seed = 0x64697370ULL;  // "disp"

  // Consulted at the sites documented above. Null = injection off.
  fault::FaultInjector* faults = nullptr;
  metrics::Options metrics;

  Status Validate() const;
};

// Point-in-time control-plane view of one backend.
struct BackendSnapshot {
  std::string name;
  std::string host;
  uint16_t port = 0;
  BackendState state = BackendState::kUp;
  bool healthy = false;
  double weight = 0.0;
  double latency_ewma_ms = 0.0;
  double error_ewma = 0.0;
  uint64_t inflight = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
};

struct DispatcherStats {
  uint64_t requests = 0;        // requests entering the proxy path
  uint64_t failovers = 0;       // retries on a different backend
  uint64_t no_backend = 0;      // 503s: no routable backend existed
  uint64_t proxy_errors = 0;    // 502s: every attempt failed
  uint64_t drains = 0;
  uint64_t probe_failures = 0;
  uint64_t bytes_to_backends = 0;
  uint64_t bytes_from_backends = 0;
};

class Dispatcher {
 public:
  Dispatcher(std::vector<BackendAddress> backends, DispatcherOptions options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Runs one synchronous probe pass (so weights are live before the first
  // client connects), starts the front end's reactors, then the advisor.
  Status Start();

  // Stops the front end (closing every client connection and releasing
  // every pinned backend lease), then joins the advisor. Idempotent.
  void Stop();

  // The front end's bound port (valid after Start()).
  uint16_t port() const;

  size_t backend_count() const { return backends_.size(); }

  // Clean removal: kUp -> kDraining -> (grace, epoch bump, inflight == 0)
  // -> kOut. Blocks for up to drain_grace + drain_deadline. Returns
  // FailedPrecondition if the backend is not kUp, Unavailable if in-flight
  // requests outlived the deadline (the backend stays kDraining).
  Status Drain(size_t backend);

  // kOut/kDraining -> kUp. The advisor re-admits the backend (weight > 0)
  // on its next successful probe, with EWMA history reset — the backend
  // may be a different process by now.
  Status Reinstate(size_t backend);

  // Blocks until the backend is kUp, probed healthy, and routable
  // (weight > 0), or the timeout passes.
  Status WaitHealthy(size_t backend, TimeNs timeout);

  BackendSnapshot snapshot(size_t backend) const;
  std::vector<BackendSnapshot> snapshots() const;
  DispatcherStats stats() const;

  // The front end, for reactor/keep-alive introspection in tests.
  const http::HttpServer& front() const { return *server_; }

 private:
  struct Backend;
  struct Lease;

  // Forwards the request in place: strips its hop-by-hop headers and
  // sends it on without a copy.
  http::HttpResponse Proxy(http::HttpRequest& request,
                           http::ConnectionContext& ctx);
  Result<http::HttpResponse> Forward(Backend& backend,
                                     http::HttpClient& client,
                                     const http::HttpRequest& request);
  // Weighted power-of-two-choices over routable backends; -1 if none.
  // `exclude` skips the backend a failover just abandoned.
  int PickBackend(Rng& rng, int exclude) const;
  void AdvisorLoop();
  void ProbeAll();
  http::HttpResponse DispatchzPage() const;

  std::vector<std::unique_ptr<Backend>> backends_;
  DispatcherOptions options_;
  std::string instance_;
  std::unique_ptr<http::HttpServer> server_;

  std::thread advisor_;
  std::mutex advisor_mutex_;
  std::condition_variable advisor_cv_;
  bool advisor_stop_ = false;
  std::atomic<bool> running_{false};

  metrics::Counter* requests_;
  metrics::Counter* failovers_;
  metrics::Counter* no_backend_;
  metrics::Counter* proxy_errors_;
  metrics::Counter* drains_;
  metrics::Counter* probe_failures_;
  metrics::Counter* bytes_to_backends_;
  metrics::Counter* bytes_from_backends_;
};

}  // namespace nagano::dispatch
