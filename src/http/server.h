// Epoll-based HTTP/1.1 server. One or more reactor threads (event loops),
// each with its own epoll fd and connection table, non-blocking sockets,
// keep-alive and pipelining support. Handlers run on the owning reactor's
// thread — the Olympic serving path is cache-hit dominated, so handler
// latency is microseconds; Options.reactors scales the hot path across
// processors the way the paper's SMP front ends did across CPUs.
//
// Responses drain through a per-connection scatter-gather queue: the header
// block is serialized once into an owned buffer and the body rides as a
// shared reference (writev), so a cache hit never copies the page into the
// connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/stats.h"
#include "http/message.h"

namespace nagano::http {

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t requests_served = 0;
  uint64_t parse_errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  // Requests beyond the first on a persistent connection — the HTTP/1.1
  // keep-alive win the paper's front ends relied on at Olympic load.
  uint64_t keepalive_reuses = 0;
  // Connections reaped by the idle sweep (slow-loris defense).
  uint64_t idle_closed = 0;
  // Times a connection's pending output crossed max_pending_write_bytes and
  // its reads were paused until the queue drained (slow-client defense).
  uint64_t write_stalls = 0;
  // Response bodies materialized (copied/assembled) into the write path
  // instead of served by shared reference. Zero on a cache-hit-only run —
  // the proof obligation of the zero-copy hit path.
  uint64_t body_copies = 0;
};

// A non-blocking TCP listen socket on bind_address:port (port 0 = kernel-
// assigned; *bound_port receives the port actually bound), with a
// 128-connection accept backlog.
Result<int> Listen(const std::string& bind_address, uint16_t port,
                   uint16_t* bound_port);

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options : OptionsBase {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
    // Event-loop threads. 1 reproduces the uniprocessor front end; more
    // scale the serving hot path across cores: reactor 0 owns the single
    // listen socket and deals accepted fds to the reactors in round-robin
    // order over eventfd wakeups, the same path Adopt() uses. Each reactor
    // is its own fault-injection site ("<instance>/r<k>" when reactors > 1)
    // and carries its own reactor-labelled request counter.
    size_t reactors = 1;
    // Close connections with no traffic for this long (wall clock; each
    // reactor wakes every 100 ms to sweep). 0 disables the sweep. This is
    // the slow-loris defense: a client that trickles bytes or never
    // completes a request cannot hold a connection slot forever.
    TimeNs idle_timeout = 0;
    // Slow-client write-stall guard: when a connection's queued output
    // exceeds this many bytes (the client is not draining its socket), stop
    // reading — and thus answering — that connection until the queue
    // flushes. The client feels TCP backpressure; the reactor keeps its
    // memory bounded and its cycles for clients that actually read. While
    // paused the connection earns no activity credit, so a flooder that
    // never drains is eventually reaped by the idle sweep. 0 = unbounded.
    size_t max_pending_write_bytes = 0;
    // Consulted on the socket paths ({"http", <site>, "accept"|"read"|
    // "write"}): a firing rule closes the connection at that point, the
    // way a dying front end would. With reactors == 1 the site is the
    // metrics instance (legacy drills unchanged); with more it is
    // "<instance>/r<k>" so a drill can kill one reactor's sockets while
    // its siblings keep serving. Null = injection off.
    fault::FaultInjector* faults = nullptr;
    // Registry + instance label for the nagano_http_* metrics.
    metrics::Options metrics;

    Status Validate() const;
  };

  explicit HttpServer(Handler handler) : HttpServer(std::move(handler), Options()) {}
  HttpServer(Handler handler, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and starts the reactor threads.
  Status Start();

  // Closes the listeners and every connection, joins all reactors.
  // Idempotent.
  void Stop();

  // Takes over a client socket that was accepted elsewhere (the dispatcher
  // tier routes connections this way) and serves it exactly like one of
  // its own, on the next reactor in round-robin order. It counts in
  // connections_accepted. On success the server owns the fd; while the
  // server is not running it returns Unavailable and the fd stays the
  // caller's to close. Safe to call from any thread, concurrently with
  // Stop().
  Status Adopt(int fd);
  // Adopted connections still open: handed in, not yet closed by either
  // side.
  size_t adopted_connections() const {
    return adopted_open_.load(std::memory_order_acquire);
  }

  // Drain mode, for a server leaving rotation: from now on every response
  // carries "Connection: close", and a connection idle for `idle_grace`
  // is closed, so clients reconnect (elsewhere) without losing a request.
  // EndDrain() returns to normal keep-alive serving; Start() also does.
  void BeginDrain(TimeNs idle_grace);
  void EndDrain();
  bool draining() const {
    return drain_idle_.load(std::memory_order_relaxed) >= 0;
  }

  // The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  // Process-wide totals (all reactors).
  ServerStats stats() const;
  // Requests served per reactor, index-ordered — the load-balance view the
  // throughput bench reports.
  std::vector<uint64_t> reactor_requests() const;

 private:
  struct Connection;
  struct Reactor;

  void ReactorLoop(Reactor& r);
  void AcceptNew(Reactor& r, int listen_fd);
  void AdoptConnection(Reactor& r, int fd, bool adopted);
  void DrainHandoff(Reactor& r);
  void HandleReadable(Reactor& r, Connection& conn);
  // Answers every fully parsed request queued on the connection, stopping
  // early once pending output exceeds the write-stall cap. Returns true if
  // anything was enqueued.
  bool ProcessParsedRequests(Reactor& r, Connection& conn);
  void EnqueueResponse(Reactor& r, Connection& conn, HttpResponse&& response);
  void HandleWritable(Reactor& r, Connection& conn);
  // Re-arms the connection's epoll mask from want_write + read_paused.
  void UpdateEpollMask(Reactor& r, Connection& conn);
  void CloseConnection(Reactor& r, int fd);
  void SweepIdle(Reactor& r, TimeNs now);
  // The cached 1-second-granularity "Date: ...\r\n" line, refreshed per
  // reactor so header assembly is an append of a span. Uses calendar time
  // (time()), not the monotonic activity clock.
  const std::string& DateLine(Reactor& r);

  Handler handler_;
  Options options_;
  std::string instance_;  // metrics label (reactor sites derive from it)
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> adopt_cursor_{0};   // Adopt()'s round-robin cursor
  std::atomic<size_t> adopted_open_{0};
  // Drain mode's idle grace; -1 while not draining.
  std::atomic<TimeNs> drain_idle_{-1};

  // Server-wide counters are registry cells (lock-free increments from any
  // reactor), so the stats() accessor needs no lock.
  metrics::Counter* connections_;
  metrics::Counter* connections_closed_;
  metrics::Counter* requests_;
  metrics::Counter* parse_errors_;
  metrics::Counter* bytes_in_;
  metrics::Counter* bytes_out_;
  metrics::Counter* keepalive_reuses_;
  metrics::Counter* idle_closed_;
  metrics::Counter* write_stalls_;
  metrics::Counter* body_copies_;
};

}  // namespace nagano::http
