#include "http/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"

namespace nagano::http {
namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// One element of a connection's scatter-gather output queue: either an owned
// byte block (header blocks, error bodies) or a shared reference into a
// cached entity (the zero-copy hit path). Exactly one of the two is active.
struct OutChunk {
  std::string owned;
  std::shared_ptr<const std::string> ref;

  const char* data() const { return ref != nullptr ? ref->data() : owned.data(); }
  size_t size() const { return ref != nullptr ? ref->size() : owned.size(); }
};

}  // namespace

Result<int> Listen(const std::string& bind_address, uint16_t port,
                   uint16_t* bound_port) {
  constexpr int kBacklog = 128;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad bind address " + bind_address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return InternalError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    failed = "bind";
  } else if (::listen(fd, kBacklog) < 0) {
    failed = "listen";
  }
  if (failed != nullptr) {
    const std::string why = std::string(failed) + ": " + std::strerror(errno);
    ::close(fd);
    return UnavailableError(why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  SetNonBlocking(fd);
  return fd;
}

struct HttpServer::Connection {
  int fd = -1;
  RequestParser parser;
  // Scatter-gather output queue, drained front-first via writev. The front
  // chunk may be partially written (front_offset bytes already gone).
  std::deque<OutChunk> out;
  size_t front_offset = 0;
  uint64_t served = 0;       // requests answered on this connection
  TimeNs last_activity = 0;  // wall clock; drives the idle sweep
  bool adopted = false;      // arrived through Adopt(), not a listener
  size_t pending = 0;        // queued output bytes not yet written
  bool close_after_flush = false;
  bool want_write = false;
  // Write-stall guard tripped: EPOLLIN is off until the queue drains.
  bool read_paused = false;
};

struct HttpServer::Reactor {
  size_t index = 0;
  std::string site;  // fault-injection site ("<instance>/r<k>" when multi)
  metrics::Counter* requests = nullptr;  // reactor-labelled request counter

  int epoll_fd = -1;
  int wake_fd = -1;
  // Owned listen socket: reactor 0 only, -1 on the others.
  int listen_fd = -1;
  std::thread thread;
  std::unordered_map<int, Connection> connections;

  // Handoff queue: reactor 0's acceptor and Adopt() push accepted
  // fds here and kick wake_fd; the owning reactor takes them on its next
  // loop turn. `open` (under the mutex) is true from Start() until Stop()
  // has closed the queue, so no fd can be pushed after that.
  struct Handoff {
    int fd;
    bool adopted;
  };
  std::mutex handoff_mutex;
  std::vector<Handoff> handoff;
  bool open = false;
  size_t next_robin = 0;  // reactor 0's round-robin cursor

  // 1-second-granularity cached "Date: ...\r\n" line, private to this
  // reactor's thread so header assembly is an append of a span.
  time_t date_second = -1;
  std::string date_line;

  TimeNs next_sweep = 0;  // earliest wall-clock time of the next idle sweep
};

Status HttpServer::Options::Validate() const {
  if (reactors < 1 || reactors > 64) {
    return InvalidArgumentError(
        "HttpServer::Options.reactors must be in [1, 64]");
  }
  if (idle_timeout < 0) {
    return InvalidArgumentError(
        "HttpServer::Options.idle_timeout must be >= 0");
  }
  if (bind_address.empty()) {
    return InvalidArgumentError(
        "HttpServer::Options.bind_address must be set");
  }
  return Status::Ok();
}

HttpServer::HttpServer(Handler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  ValidateOrDie(options_, "HttpServer::Options");
  const auto scope = metrics::Scope::Resolve(options_.metrics, "http");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  connections_ = scope.GetCounter("nagano_http_connections_accepted_total",
                                  "TCP connections accepted");
  connections_closed_ = scope.GetCounter(
      "nagano_http_connections_closed_total", "TCP connections closed");
  requests_ =
      scope.GetCounter("nagano_http_requests_total", "HTTP requests served");
  parse_errors_ = scope.GetCounter("nagano_http_parse_errors_total",
                                   "malformed requests rejected");
  bytes_in_ =
      scope.GetCounter("nagano_http_bytes_in_total", "request bytes read");
  bytes_out_ =
      scope.GetCounter("nagano_http_bytes_out_total", "response bytes written");
  keepalive_reuses_ =
      scope.GetCounter("nagano_http_keepalive_reuses_total",
                       "requests beyond the first on a persistent connection");
  idle_closed_ = scope.GetCounter(
      "nagano_http_idle_closed_total",
      "connections reaped by the idle sweep (slow-loris defense)");
  write_stalls_ = scope.GetCounter(
      "nagano_http_write_stalls_total",
      "connections paused for exceeding max_pending_write_bytes "
      "(slow-client defense)");
  body_copies_ = scope.GetCounter(
      "nagano_http_body_copies_total",
      "response bodies materialized into the write path instead of served "
      "by shared reference; zero on a cache-hit-only run");

  reactors_.reserve(options_.reactors);
  for (size_t k = 0; k < options_.reactors; ++k) {
    auto r = std::make_unique<Reactor>();
    r->index = k;
    r->site = options_.reactors > 1 ? instance_ + "/r" + std::to_string(k)
                                    : instance_;
    r->requests = scope.registry->GetCounter(
        "nagano_http_reactor_requests_total",
        scope.With("reactor", std::to_string(k)),
        "HTTP requests served, per reactor");
    reactors_.push_back(std::move(r));
  }
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.exchange(true)) {
    return FailedPreconditionError("server already running");
  }
  EndDrain();

  Result<int> listener = Listen(options_.bind_address, options_.port, &port_);
  if (!listener.ok()) {
    running_ = false;
    return listener.status();
  }
  reactors_[0]->listen_fd = listener.value();

  for (auto& r : reactors_) {
    r->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    r->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (r->epoll_fd < 0 || r->wake_fd < 0) {
      Stop();
      return InternalError("epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wake_fd;
    ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    if (r->listen_fd >= 0) {
      ev.data.fd = r->listen_fd;
      ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->listen_fd, &ev);
    }
  }
  for (auto& r : reactors_) {
    Reactor* rp = r.get();
    r->thread = std::thread([this, rp] { ReactorLoop(*rp); });
    std::lock_guard<std::mutex> lock(r->handoff_mutex);
    r->open = true;
  }
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& r : reactors_) {
    if (r->wake_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(r->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  for (auto& r : reactors_) {
    for (auto& [fd, conn] : r->connections) {
      ::close(fd);
      connections_closed_->Increment();
      if (conn.adopted) adopted_open_.fetch_sub(1, std::memory_order_acq_rel);
    }
    r->connections.clear();
    {
      // Closing the queue under its lock: an Adopt() either got its fd in
      // before this (closed here) or sees `open` false and keeps its fd.
      std::lock_guard<std::mutex> lock(r->handoff_mutex);
      r->open = false;
      for (const Reactor::Handoff& h : r->handoff) {
        ::close(h.fd);
        connections_closed_->Increment();
        if (h.adopted) adopted_open_.fetch_sub(1, std::memory_order_acq_rel);
      }
      r->handoff.clear();
    }
    if (r->listen_fd >= 0) ::close(r->listen_fd);
    if (r->epoll_fd >= 0) ::close(r->epoll_fd);
    if (r->wake_fd >= 0) ::close(r->wake_fd);
    r->listen_fd = r->epoll_fd = r->wake_fd = -1;
    r->next_robin = 0;
    r->date_second = -1;
    r->next_sweep = 0;
  }
}

void HttpServer::ReactorLoop(Reactor& r) {
  constexpr int kMaxEvents = 64;
  // The idle sweep scans the whole connection table, so a busy reactor runs
  // it at this period rather than after every epoll batch; epoll_wait's
  // timeout gives an idle reactor the same period.
  constexpr TimeNs kSweepInterval = 100 * kMillisecond;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(r.epoll_fd, events, kMaxEvents,
                               static_cast<int>(kSweepInterval / kMillisecond));
    if (n < 0) {
      if (errno == EINTR) continue;
      LOG_ERROR("epoll_wait (reactor %zu): %s", r.index, std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.wake_fd) {
        uint64_t drain;
        [[maybe_unused]] ssize_t rd = ::read(r.wake_fd, &drain, sizeof(drain));
        DrainHandoff(r);
        continue;
      }
      if (fd == r.listen_fd) {
        AcceptNew(r, fd);
        continue;
      }
      auto it = r.connections.find(fd);
      if (it == r.connections.end()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(r, fd);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(r, it->second);
      // The connection may have been closed by the read path.
      it = r.connections.find(fd);
      if (it != r.connections.end() && (events[i].events & EPOLLOUT)) {
        HandleWritable(r, it->second);
      }
    }
    if (options_.idle_timeout > 0 || draining()) {
      const TimeNs now = RealClock::Instance().Now();
      if (now >= r.next_sweep) {
        SweepIdle(r, now);
        r.next_sweep = now + kSweepInterval;
      }
    }
  }
}

void HttpServer::SweepIdle(Reactor& r, TimeNs now) {
  // Drain mode tightens the bound to its idle grace.
  TimeNs limit = options_.idle_timeout;
  const TimeNs drain = drain_idle_.load(std::memory_order_relaxed);
  if (drain >= 0 && (limit == 0 || drain < limit)) limit = drain;
  // Collect first: CloseConnection mutates the table.
  std::vector<int> victims;
  for (const auto& [fd, conn] : r.connections) {
    if (now - conn.last_activity >= limit) {
      victims.push_back(fd);
    }
  }
  for (int fd : victims) {
    idle_closed_->Increment();
    CloseConnection(r, fd);
  }
}

void HttpServer::AcceptNew(Reactor& r, int listen_fd) {
  // Reactor 0 owns the only listener and deals accepted fds across the
  // fleet in round-robin order.
  const bool distribute = reactors_.size() > 1;
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      LOG_WARN("accept: %s", std::strerror(errno));
      return;
    }
    Reactor& target =
        distribute ? *reactors_[r.next_robin++ % reactors_.size()] : r;
    if (!fault::Check(options_.faults, "http", target.site, "accept").ok()) {
      // A dying front end: the TCP handshake completed but the server
      // process never services the connection.
      ::close(fd);
      continue;
    }
    connections_->Increment();
    if (&target == &r) {
      AdoptConnection(r, fd, /*adopted=*/false);
    } else {
      {
        std::lock_guard<std::mutex> lock(target.handoff_mutex);
        target.handoff.push_back({fd, /*adopted=*/false});
      }
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(target.wake_fd, &one, sizeof(one));
    }
  }
}

Status HttpServer::Adopt(int fd) {
  Reactor& r = *reactors_[adopt_cursor_.fetch_add(1, std::memory_order_relaxed) %
                          reactors_.size()];
  std::lock_guard<std::mutex> lock(r.handoff_mutex);
  if (!r.open) return UnavailableError("server is not running");
  if (!SetNonBlocking(fd)) {
    return InvalidArgumentError(std::string("adopt: ") + std::strerror(errno));
  }
  connections_->Increment();
  adopted_open_.fetch_add(1, std::memory_order_acq_rel);
  r.handoff.push_back({fd, /*adopted=*/true});
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(r.wake_fd, &one, sizeof(one));
  return Status::Ok();
}

void HttpServer::BeginDrain(TimeNs idle_grace) {
  drain_idle_.store(std::max<TimeNs>(0, idle_grace), std::memory_order_relaxed);
}

void HttpServer::EndDrain() { drain_idle_.store(-1, std::memory_order_relaxed); }

void HttpServer::AdoptConnection(Reactor& r, int fd, bool adopted) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Connection& conn = r.connections[fd];
  conn.fd = fd;
  conn.last_activity = RealClock::Instance().Now();
  conn.adopted = adopted;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

void HttpServer::DrainHandoff(Reactor& r) {
  std::vector<Reactor::Handoff> taken;
  {
    std::lock_guard<std::mutex> lock(r.handoff_mutex);
    taken.swap(r.handoff);
  }
  for (const Reactor::Handoff& h : taken) AdoptConnection(r, h.fd, h.adopted);
}

const std::string& HttpServer::DateLine(Reactor& r) {
  const time_t sec = ::time(nullptr);
  if (sec != r.date_second) {
    r.date_second = sec;
    tm tm_utc{};
    gmtime_r(&sec, &tm_utc);
    char buf[48];
    const size_t n = strftime(buf, sizeof(buf),
                              "Date: %a, %d %b %Y %H:%M:%S GMT\r\n", &tm_utc);
    r.date_line.assign(buf, n);
  }
  return r.date_line;
}

void HttpServer::EnqueueResponse(Reactor& r, Connection& conn,
                                 HttpResponse&& response) {
  OutChunk head;
  response.SerializeHeaders(head.owned, DateLine(r));
  conn.pending += head.owned.size();
  conn.out.push_back(std::move(head));
  if (!response.body_chunks.empty()) {
    // Scatter-gather zero-copy: a composed page's plan chunks (static text
    // + pinned fragment snapshots) are queued one ref apiece and flow to
    // the socket via writev — the page is never assembled in memory.
    for (auto& chunk : response.body_chunks) {
      if (chunk == nullptr || chunk->empty()) continue;
      OutChunk body;
      body.ref = std::move(chunk);
      conn.pending += body.ref->size();
      conn.out.push_back(std::move(body));
    }
  } else if (response.body_ref != nullptr) {
    // Zero-copy: the queue holds a reference into the cached entity; the
    // bytes flow to the socket via writev without ever being copied into
    // the connection. The ref keeps the entity alive through the flush.
    if (!response.body_ref->empty()) {
      OutChunk body;
      body.ref = std::move(response.body_ref);
      conn.pending += body.ref->size();
      conn.out.push_back(std::move(body));
    }
  } else if (!response.body.empty()) {
    body_copies_->Increment();
    OutChunk body;
    body.owned = std::move(response.body);
    conn.pending += body.owned.size();
    conn.out.push_back(std::move(body));
  }
}

void HttpServer::UpdateEpollMask(Reactor& r, Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void HttpServer::HandleReadable(Reactor& r, Connection& conn) {
  if (!fault::Check(options_.faults, "http", r.site, "read").ok()) {
    CloseConnection(r, conn.fd);
    return;
  }
  conn.last_activity = RealClock::Instance().Now();
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_in_->Increment(static_cast<uint64_t>(n));
      if (Status s = conn.parser.Feed(std::string_view(buf, size_t(n))); !s.ok()) {
        parse_errors_->Increment();
        HttpResponse bad;
        bad.status = 400;
        bad.reason = "Bad Request";
        bad.body = s.message();
        conn.close_after_flush = true;
        EnqueueResponse(r, conn, std::move(bad));
        break;
      }
      // A short read drained the socket. Epoll is level-triggered, so
      // bytes (or the peer's FIN) arriving later are reported again; a
      // second read here would only return EAGAIN.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(r, conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(r, conn.fd);
    return;
  }

  ProcessParsedRequests(r, conn);
  if (!conn.out.empty()) HandleWritable(r, conn);
}

bool HttpServer::ProcessParsedRequests(Reactor& r, Connection& conn) {
  const size_t cap = options_.max_pending_write_bytes;
  bool any = false;
  while (!conn.close_after_flush) {
    // Bounded output queue: once a slow client has a cap's worth of
    // unflushed responses, stop answering its pipeline — the remaining
    // parsed requests wait until the queue drains (HandleWritable resumes
    // us after the flush).
    if (cap > 0 && conn.pending > cap) break;
    auto request = conn.parser.Next();
    if (!request) break;
    requests_->Increment();
    r.requests->Increment();
    if (conn.served++ > 0) keepalive_reuses_->Increment();
    HttpResponse response = handler_(*request);
    if (!request->KeepAlive() || draining()) {
      response.headers["Connection"] = "close";
      conn.close_after_flush = true;
    }
    EnqueueResponse(r, conn, std::move(response));
    any = true;
  }
  return any;
}

void HttpServer::HandleWritable(Reactor& r, Connection& conn) {
  if (!conn.out.empty() &&
      !fault::Check(options_.faults, "http", r.site, "write").ok()) {
    CloseConnection(r, conn.fd);
    return;
  }
  conn.last_activity = RealClock::Instance().Now();
  constexpr int kMaxIov = 16;
  for (;;) {
    while (!conn.out.empty()) {
      iovec iov[kMaxIov];
      int niov = 0;
      size_t idx = 0;
      for (auto it = conn.out.begin(); it != conn.out.end() && niov < kMaxIov;
           ++it, ++idx) {
        const char* base = it->data();
        size_t len = it->size();
        if (idx == 0) {
          base += conn.front_offset;
          len -= conn.front_offset;
        }
        if (len == 0) continue;
        iov[niov].iov_base = const_cast<char*>(base);
        iov[niov].iov_len = len;
        ++niov;
      }
      if (niov == 0) {  // only empty chunks left
        conn.out.clear();
        conn.front_offset = 0;
        conn.pending = 0;
        break;
      }
      const ssize_t n = ::writev(conn.fd, iov, niov);
      if (n > 0) {
        bytes_out_->Increment(static_cast<uint64_t>(n));
        size_t written = static_cast<size_t>(n);
        conn.pending -= std::min(conn.pending, written);
        while (written > 0 && !conn.out.empty()) {
          const size_t remain = conn.out.front().size() - conn.front_offset;
          if (written >= remain) {
            written -= remain;
            conn.out.pop_front();
            conn.front_offset = 0;
          } else {
            conn.front_offset += written;
            written = 0;
          }
        }
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The socket buffer is full — the client is not draining. Arm
        // EPOLLOUT, and when the backlog has crossed the write-stall cap,
        // pause reads too: no new requests are answered for this
        // connection until the queue flushes. A flooder that never drains
        // stops earning activity credit and the idle sweep reaps it.
        const bool was_write = conn.want_write;
        const bool was_paused = conn.read_paused;
        conn.want_write = true;
        const size_t cap = options_.max_pending_write_bytes;
        if (cap > 0 && !conn.read_paused && conn.pending > cap) {
          conn.read_paused = true;
          write_stalls_->Increment();
        }
        if (conn.want_write != was_write || conn.read_paused != was_paused) {
          UpdateEpollMask(r, conn);
        }
        return;
      }
      if (errno == EINTR) continue;
      CloseConnection(r, conn.fd);
      return;
    }
    // Fully flushed.
    conn.front_offset = 0;
    conn.pending = 0;
    if (conn.close_after_flush) {
      CloseConnection(r, conn.fd);
      return;
    }
    const bool was_paused = conn.read_paused;
    if (conn.want_write || conn.read_paused) {
      conn.want_write = false;
      conn.read_paused = false;
      UpdateEpollMask(r, conn);
    }
    // Requests parsed while the stall guard held reads shut are still
    // waiting; answer them now that the queue is empty and go around for
    // another flush.
    if (was_paused && ProcessParsedRequests(r, conn)) continue;
    return;
  }
}

void HttpServer::CloseConnection(Reactor& r, int fd) {
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  auto it = r.connections.find(fd);
  if (it == r.connections.end()) return;
  if (it->second.adopted) {
    adopted_open_.fetch_sub(1, std::memory_order_acq_rel);
  }
  r.connections.erase(it);
  connections_closed_->Increment();
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_->value();
  s.connections_closed = connections_closed_->value();
  s.requests_served = requests_->value();
  s.parse_errors = parse_errors_->value();
  s.bytes_in = bytes_in_->value();
  s.bytes_out = bytes_out_->value();
  s.keepalive_reuses = keepalive_reuses_->value();
  s.idle_closed = idle_closed_->value();
  s.write_stalls = write_stalls_->value();
  s.body_copies = body_copies_->value();
  return s;
}

std::vector<uint64_t> HttpServer::reactor_requests() const {
  std::vector<uint64_t> out;
  out.reserve(reactors_.size());
  for (const auto& r : reactors_) out.push_back(r->requests->value());
  return out;
}

}  // namespace nagano::http
