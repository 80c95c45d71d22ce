// dispatch::Dispatcher — the real-socket Network Dispatcher tier.
//
// The paper's topology put SP2 serving frames behind IBM Network Dispatchers
// that spread client TCP connections across front ends and steered around
// dead ones. Like those boxes, this dispatcher sits on the inbound path
// only: it accepts a client connection, picks a backend, and hands the
// socket to that backend's in-process http::HttpServer (HttpServer::Adopt),
// which answers the client directly for the connection's whole life. The
// dispatcher never parses HTTP; a dispatched read costs one loopback round
// trip, not two.
//
//  * Advisor-driven health. A background advisor thread probes every
//    backend's /healthz each probe_interval and folds the probe's outcome
//    and latency into EWMAs, producing a weight per backend:
//        weight = healthy ? max(0.01, 1 - err_ewma) / (0.5 + lat_ewma_ms)
//               : 0
//    — the Dispatcher analog of the paper's advisor-fed routing tables.
//    The probes are its only input: the data path no longer crosses it.
//
//  * Weighted routing. Each accepted connection picks a backend by power-
//    of-two-choices over the advisor weights: two weighted draws, and the
//    winner is the candidate with fewer open handed-off connections per
//    unit of weight.
//
//  * Connection-level failover. A handoff fails when the backend is
//    detached, stopped or inside a "backend" fault window; the backend is
//    marked unhealthy on the spot (the advisor re-admits it on its next
//    successful probe) and the connection goes to another backend. Each
//    routable backend is tried once before the connection is closed.
//
//  * Connection draining. Drain(i) moves a backend kUp -> kDraining (no new
//    connections) and puts its server in drain mode: every response carries
//    "Connection: close" and connections idle for drain_grace are closed.
//    Clients reconnect through the dispatcher to a live backend — a client
//    whose idle socket was closed retries once on a fresh connection — so a
//    clean drain fails no request. Once no handed-off connection is open
//    the backend lands at kOut. A hard kill closes the backend's sockets;
//    the same client retry rides it through.
//
// Lifetime: the dispatcher calls into a backend's server only under that
// backend's lock, and Detach(i) returns only once no call is in progress,
// so an owner detaches a server before destroying it and Attaches the new
// one after a restart. Handoff is in-process; passing fds across processes
// is out of scope.
//
// Fault sites (subsystem "dispatch", site "<instance>/<backend-name>"):
//   "handoff"  fail one handoff to the backend
//   "probe"    drop one advisor health probe
//   "backend"  kWindow rule: the backend is dead while active (both the
//              handoff and the advisor see the outage)
//
// Metrics (registry, site label = instance): nagano_dispatch_connections_total,
// _failovers_total, _no_backend_total, _drains_total, _probe_failures_total,
// and per-backend (extra label backend=<name>) _backend_requests_total
// (connections routed), _backend_errors_total (failed handoffs) and
// _backend_weight.
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

// One backend the dispatcher fronts: its address (probed over TCP) and the
// in-process server accepted connections are handed to.
struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string name;  // label for metrics/fault sites; "b<k>" when empty
  // Null = detached: not routable until Attach().
  http::HttpServer* server = nullptr;
};

// Backend lifecycle: kUp takes new connections, kDraining only finishes the
// ones it has, kOut has none (Reinstate to rejoin).
enum class BackendState : uint8_t { kUp, kDraining, kOut };
std::string_view BackendStateName(BackendState state);

struct DispatcherOptions : OptionsBase {
  // The client-facing listener.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
  // Threads accepting on that listener.
  size_t accept_threads = 1;

  // Advisor cadence and probe socket bound. A dead backend is detected
  // within one probe_interval; a hung one within probe_timeout.
  TimeNs probe_interval = 25 * kMillisecond;
  TimeNs probe_timeout = 250 * kMillisecond;

  // Drain(i): a keep-alive connection idle this long on the draining
  // backend is closed.
  TimeNs drain_grace = 200 * kMillisecond;

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
  uint64_t connections = 0;  // handed-off connections still open
  uint64_t requests = 0;     // client connections routed to this backend
  uint64_t errors = 0;       // handoffs to this backend that failed
};

struct DispatcherStats {
  uint64_t connections = 0;  // client connections accepted
  uint64_t failovers = 0;    // connections re-picked after a failed handoff
  uint64_t no_backend = 0;   // connections closed: no backend would take them
  uint64_t drains = 0;
  uint64_t probe_failures = 0;
};

class Dispatcher {
 public:
  Dispatcher(std::vector<BackendAddress> backends, DispatcherOptions options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Runs one synchronous probe pass (so weights are live before the first
  // client connects), binds the listener, then starts the accept threads
  // and the advisor.
  Status Start();

  // Stops accepting and joins the accept threads and the advisor.
  // Connections already handed off stay with their backends. Idempotent.
  void Stop();

  // The client-facing port (valid after Start()).
  uint16_t port() const { return port_; }

  size_t backend_count() const { return backends_.size(); }

  // Points backend `i` at a (new) in-process server, or detaches it
  // (nullptr). Detach returns once no handoff to the old server is in
  // progress; the dispatcher never touches it again.
  Status Attach(size_t backend, http::HttpServer* server);
  Status Detach(size_t backend) { return Attach(backend, nullptr); }

  // Clean removal: kUp -> kDraining -> (every handed-off connection
  // closed) -> kOut. Blocks for up to drain_grace + two seconds.
  // Returns FailedPrecondition if the backend is not kUp, Unavailable if
  // connections outlived the deadline (the backend stays kDraining).
  Status Drain(size_t backend);

  // kOut/kDraining -> kUp, and the server leaves drain mode. The advisor
  // re-admits the backend (weight > 0) on its next successful probe, with
  // EWMA history reset — the backend may be a different process by now.
  Status Reinstate(size_t backend);

  // Blocks until the backend is kUp, probed healthy, and routable
  // (weight > 0), or the timeout passes.
  Status WaitHealthy(size_t backend, TimeNs timeout);

  BackendSnapshot snapshot(size_t backend) const;
  std::vector<BackendSnapshot> snapshots() const;
  DispatcherStats stats() const;

 private:
  struct Backend;

  void AcceptLoop(size_t thread_index);
  // Hands the accepted fd to a backend, failing over until one takes it;
  // closes it when none will.
  void Route(int fd, Rng& rng);
  Status Handoff(Backend& backend, int fd);
  // Weighted power-of-two-choices over routable backends not yet `tried`;
  // -1 if none.
  int PickBackend(Rng& rng, const std::vector<bool>& tried) const;
  // Handed-off connections still open on the backend's current server.
  size_t OpenConnections(const Backend& backend) const;
  void AdvisorLoop();
  void ProbeAll();

  std::vector<std::unique_ptr<Backend>> backends_;
  DispatcherOptions options_;
  std::string instance_;

  int listen_fd_ = -1;
  int stop_fd_ = -1;  // eventfd: wakes the accept threads for Stop()
  uint16_t port_ = 0;
  std::vector<std::thread> acceptors_;

  std::thread advisor_;
  std::mutex advisor_mutex_;
  std::condition_variable advisor_cv_;
  bool advisor_stop_ = false;
  std::atomic<bool> running_{false};

  metrics::Counter* connections_;
  metrics::Counter* failovers_;
  metrics::Counter* no_backend_;
  metrics::Counter* drains_;
  metrics::Counter* probe_failures_;
};

}  // namespace nagano::dispatch
