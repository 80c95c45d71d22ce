#include "dispatch/dispatcher.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <utility>

namespace nagano::dispatch {
namespace {

// EWMA smoothing for the advisor's latency and error-rate folds.
constexpr double kEwmaAlpha = 0.3;
// Drain(i): how long past drain_grace to wait for the rest of the
// backend's connections to close.
constexpr TimeNs kDrainDeadline = 2 * kSecond;
// Seeds the per-thread power-of-two-choices draws.
constexpr uint64_t kPickSeed = 0x64697370ULL;  // "disp"

TimeNs SteadyNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepNs(TimeNs ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace

std::string_view BackendStateName(BackendState state) {
  switch (state) {
    case BackendState::kUp:
      return "up";
    case BackendState::kDraining:
      return "draining";
    case BackendState::kOut:
      return "out";
  }
  return "?";
}

Status DispatcherOptions::Validate() const {
  if (bind_address.empty()) {
    return InvalidArgumentError("bind_address must be set");
  }
  if (accept_threads < 1 || accept_threads > 64) {
    return InvalidArgumentError("accept_threads must be in [1, 64]");
  }
  if (probe_interval <= 0 || probe_timeout <= 0) {
    return InvalidArgumentError("probe_interval and probe_timeout must be > 0");
  }
  if (drain_grace < 0) {
    return InvalidArgumentError("drain_grace must be >= 0");
  }
  return Status::Ok();
}

// Per-backend routing state. Atomics carry everything the accept threads
// read; addr.server is guarded by `mutex`; the EWMA fold state belongs to
// the advisor thread alone (plus the synchronous first pass inside Start(),
// which happens before any other thread exists).
struct Dispatcher::Backend {
  BackendAddress addr;
  std::string site;  // fault site: "<instance>/<name>"
  mutable std::mutex mutex;

  std::atomic<BackendState> state{BackendState::kUp};
  std::atomic<bool> healthy{false};
  std::atomic<double> weight{0.0};
  // Reinstate() -> advisor: forget the previous incarnation's EWMA history.
  std::atomic<bool> reset_ewma{false};

  // Written only by the advisor; atomic so snapshot() can read them.
  std::atomic<double> lat_ewma_ms{0.0};
  std::atomic<double> err_ewma{0.0};
  bool ewma_primed = false;  // advisor-only
  std::unique_ptr<http::HttpClient> prober;

  metrics::Counter* requests = nullptr;
  metrics::Counter* errors = nullptr;
  metrics::Gauge* weight_gauge = nullptr;
};

Dispatcher::Dispatcher(std::vector<BackendAddress> backends,
                       DispatcherOptions options)
    : options_(std::move(options)) {
  ValidateOrDie(options_, "DispatcherOptions");
  if (backends.empty()) {
    DieOnInvalidOptions(InvalidArgumentError("needs at least one backend"),
                        "Dispatcher");
  }

  metrics::Scope scope = metrics::Scope::Resolve(options_.metrics, "dispatch");
  instance_ = scope.labels.empty() ? "dispatch" : scope.labels[0].second;

  connections_ = scope.GetCounter("nagano_dispatch_connections_total",
                                  "client connections accepted");
  failovers_ = scope.GetCounter(
      "nagano_dispatch_failovers_total",
      "connections re-picked onto another backend after a failed handoff");
  no_backend_ = scope.GetCounter(
      "nagano_dispatch_no_backend_total",
      "connections closed because no backend would take them");
  drains_ = scope.GetCounter("nagano_dispatch_drains_total",
                             "backend drains initiated");
  probe_failures_ = scope.GetCounter("nagano_dispatch_probe_failures_total",
                                     "advisor probes that failed");

  backends_.reserve(backends.size());
  for (size_t i = 0; i < backends.size(); ++i) {
    auto b = std::make_unique<Backend>();
    b->addr = std::move(backends[i]);
    if (b->addr.name.empty()) b->addr.name = "b" + std::to_string(i);
    b->site = instance_ + "/" + b->addr.name;
    metrics::Labels labels = scope.With("backend", b->addr.name);
    b->requests = scope.registry->GetCounter(
        "nagano_dispatch_backend_requests_total", labels,
        "client connections routed to this backend");
    b->errors = scope.registry->GetCounter(
        "nagano_dispatch_backend_errors_total", labels,
        "handoffs to this backend that failed");
    b->weight_gauge =
        scope.registry->GetGauge("nagano_dispatch_backend_weight", labels,
                                 "advisor-computed routing weight");
    http::HttpClient::Options probe_opts;
    probe_opts.connect_timeout = options_.probe_timeout;
    probe_opts.io_timeout = options_.probe_timeout;
    b->prober = std::make_unique<http::HttpClient>(b->addr.host, b->addr.port,
                                                   probe_opts);
    backends_.push_back(std::move(b));
  }
}

Dispatcher::~Dispatcher() { Stop(); }

Status Dispatcher::Start() {
  if (running_.exchange(true)) return Status::Ok();
  // Prime weights synchronously so the first accepted connection has a
  // routable backend.
  ProbeAll();
  Result<int> listener =
      http::Listen(options_.bind_address, options_.port, &port_);
  if (!listener.ok()) {
    running_.store(false);
    return listener.status();
  }
  listen_fd_ = listener.value();
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    return InternalError("eventfd creation failed");
  }
  for (size_t t = 0; t < options_.accept_threads; ++t) {
    acceptors_.emplace_back([this, t] { AcceptLoop(t); });
  }
  {
    std::lock_guard<std::mutex> lock(advisor_mutex_);
    advisor_stop_ = false;
  }
  advisor_ = std::thread([this] { AdvisorLoop(); });
  return Status::Ok();
}

void Dispatcher::Stop() {
  if (!running_.exchange(false)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  for (std::thread& t : acceptors_) t.join();
  acceptors_.clear();
  ::close(listen_fd_);
  ::close(stop_fd_);
  listen_fd_ = stop_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(advisor_mutex_);
    advisor_stop_ = true;
  }
  advisor_cv_.notify_all();
  if (advisor_.joinable()) advisor_.join();
}

void Dispatcher::AcceptLoop(size_t thread_index) {
  // A per-thread draw stream; the seed offset keeps threads unrelated.
  Rng rng(kPickSeed + 0x9e3779b97f4a7c15ULL * (1 + thread_index));
  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_fd_, POLLIN, 0}};
  for (;;) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;
    if (fds[0].revents == 0) continue;
    // The listener is non-blocking: a sibling thread may have taken the
    // connection this wake-up announced.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) continue;
    connections_->Increment();
    Route(fd, rng);
  }
}

void Dispatcher::Route(int fd, Rng& rng) {
  std::vector<bool> tried(backends_.size(), false);
  int pick = PickBackend(rng, tried);
  while (pick >= 0) {
    Backend& b = *backends_[static_cast<size_t>(pick)];
    if (Handoff(b, fd).ok()) {
      b.requests->Increment();
      return;
    }
    // Eject the backend from routing until the advisor's next successful
    // probe re-admits it, and offer the connection to another.
    b.errors->Increment();
    b.healthy.store(false, std::memory_order_relaxed);
    tried[static_cast<size_t>(pick)] = true;
    pick = PickBackend(rng, tried);
    if (pick >= 0) failovers_->Increment();
  }
  no_backend_->Increment();
  ::close(fd);
}

Status Dispatcher::Handoff(Backend& backend, int fd) {
  if (fault::ActiveWindow(options_.faults, "dispatch", backend.site,
                          "backend")) {
    return UnavailableError(backend.addr.name + " is down (outage window)");
  }
  if (Status s =
          fault::Check(options_.faults, "dispatch", backend.site, "handoff");
      !s.ok()) {
    return s;
  }
  std::lock_guard<std::mutex> lock(backend.mutex);
  if (backend.addr.server == nullptr) {
    return UnavailableError(backend.addr.name + " is detached");
  }
  return backend.addr.server->Adopt(fd);
}

size_t Dispatcher::OpenConnections(const Backend& backend) const {
  std::lock_guard<std::mutex> lock(backend.mutex);
  const http::HttpServer* server = backend.addr.server;
  return server == nullptr ? 0 : server->adopted_connections();
}

int Dispatcher::PickBackend(Rng& rng, const std::vector<bool>& tried) const {
  struct Candidate {
    size_t index;
    double weight;
  };
  Candidate candidates[8];
  size_t n = 0;
  double total = 0.0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (tried[i]) continue;
    const Backend& b = *backends_[i];
    if (b.state.load(std::memory_order_relaxed) != BackendState::kUp) continue;
    if (!b.healthy.load(std::memory_order_relaxed)) continue;
    const double w = b.weight.load(std::memory_order_relaxed);
    if (w <= 0.0) continue;
    if (n < std::size(candidates)) {
      candidates[n++] = {i, w};
      total += w;
    }
  }
  if (n == 0) return -1;
  if (n == 1) return static_cast<int>(candidates[0].index);

  auto draw = [&]() -> const Candidate& {
    double r = rng.NextDouble() * total;
    for (size_t i = 0; i < n; ++i) {
      r -= candidates[i].weight;
      if (r < 0.0) return candidates[i];
    }
    return candidates[n - 1];
  };
  const Candidate& a = draw();
  const Candidate& b = draw();
  if (a.index == b.index) return static_cast<int>(a.index);
  // Two weighted draws, then break the tie toward the emptier backend: the
  // power-of-two-choices guard against herding onto one heavy weight.
  const double load_a =
      double(OpenConnections(*backends_[a.index])) / a.weight;
  const double load_b =
      double(OpenConnections(*backends_[b.index])) / b.weight;
  return static_cast<int>(load_a <= load_b ? a.index : b.index);
}

void Dispatcher::ProbeAll() {
  for (auto& owned : backends_) {
    Backend& b = *owned;
    if (b.reset_ewma.exchange(false, std::memory_order_acq_rel)) {
      b.ewma_primed = false;
      b.lat_ewma_ms.store(0.0, std::memory_order_relaxed);
      b.err_ewma.store(0.0, std::memory_order_relaxed);
    }

    bool probe_ok = false;
    double lat_sample = 0.0;
    if (!fault::Check(options_.faults, "dispatch", b.site, "probe").ok()) {
      probe_failures_->Increment();
    } else if (fault::ActiveWindow(options_.faults, "dispatch", b.site,
                                   "backend")) {
      probe_failures_->Increment();
      b.prober->Close();
    } else {
      const TimeNs t0 = SteadyNow();
      Result<http::HttpResponse> r = b.prober->Get("/healthz");
      probe_ok = r.ok() && r.value().status == 200;
      if (probe_ok) {
        lat_sample = double(SteadyNow() - t0) / double(kMillisecond);
      } else {
        probe_failures_->Increment();
      }
    }

    const double err_sample = probe_ok ? 0.0 : 1.0;
    double lat_ewma = b.lat_ewma_ms.load(std::memory_order_relaxed);
    double err_ewma = b.err_ewma.load(std::memory_order_relaxed);
    if (!b.ewma_primed) {
      lat_ewma = lat_sample;
      err_ewma = err_sample;
      b.ewma_primed = probe_ok;
    } else {
      if (probe_ok) {
        lat_ewma = kEwmaAlpha * lat_sample + (1.0 - kEwmaAlpha) * lat_ewma;
      }
      err_ewma = kEwmaAlpha * err_sample + (1.0 - kEwmaAlpha) * err_ewma;
    }
    b.lat_ewma_ms.store(lat_ewma, std::memory_order_relaxed);
    b.err_ewma.store(err_ewma, std::memory_order_relaxed);

    b.healthy.store(probe_ok, std::memory_order_relaxed);
    double weight = 0.0;
    if (probe_ok &&
        b.state.load(std::memory_order_relaxed) == BackendState::kUp) {
      weight = std::max(0.01, 1.0 - err_ewma) / (0.5 + std::max(0.0, lat_ewma));
    }
    b.weight.store(weight, std::memory_order_relaxed);
    b.weight_gauge->Set(weight);
  }
}

void Dispatcher::AdvisorLoop() {
  std::unique_lock<std::mutex> lock(advisor_mutex_);
  while (!advisor_stop_) {
    advisor_cv_.wait_for(lock,
                         std::chrono::nanoseconds(options_.probe_interval),
                         [this] { return advisor_stop_; });
    if (advisor_stop_) break;
    lock.unlock();
    ProbeAll();
    lock.lock();
  }
}

Status Dispatcher::Attach(size_t backend, http::HttpServer* server) {
  if (backend >= backends_.size()) {
    return InvalidArgumentError("no such backend");
  }
  Backend& b = *backends_[backend];
  std::lock_guard<std::mutex> lock(b.mutex);
  b.addr.server = server;
  return Status::Ok();
}

Status Dispatcher::Drain(size_t backend) {
  if (backend >= backends_.size()) {
    return InvalidArgumentError("no such backend");
  }
  Backend& b = *backends_[backend];
  BackendState expected = BackendState::kUp;
  if (!b.state.compare_exchange_strong(expected, BackendState::kDraining)) {
    return FailedPreconditionError(b.addr.name + " is not up (" +
                                   std::string(BackendStateName(expected)) +
                                   ")");
  }
  drains_->Increment();
  // No new connections from this moment; the ones already handed off are
  // told to close after their next response, or closed once idle.
  b.weight.store(0.0, std::memory_order_relaxed);
  b.weight_gauge->Set(0.0);
  {
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.addr.server != nullptr) {
      b.addr.server->BeginDrain(options_.drain_grace);
    }
  }
  const TimeNs deadline =
      SteadyNow() + options_.drain_grace + kDrainDeadline;
  while (OpenConnections(b) > 0) {
    if (SteadyNow() > deadline) {
      return UnavailableError(b.addr.name +
                              " still has open connections at the drain "
                              "deadline");
    }
    SleepNs(kMillisecond);
  }
  b.state.store(BackendState::kOut, std::memory_order_release);
  return Status::Ok();
}

Status Dispatcher::Reinstate(size_t backend) {
  if (backend >= backends_.size()) {
    return InvalidArgumentError("no such backend");
  }
  Backend& b = *backends_[backend];
  {
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.addr.server != nullptr) b.addr.server->EndDrain();
  }
  // Forget the previous incarnation's EWMA history: it belongs to the
  // process that left.
  b.reset_ewma.store(true, std::memory_order_release);
  b.state.store(BackendState::kUp, std::memory_order_release);
  return Status::Ok();
}

Status Dispatcher::WaitHealthy(size_t backend, TimeNs timeout) {
  if (backend >= backends_.size()) {
    return InvalidArgumentError("no such backend");
  }
  const Backend& b = *backends_[backend];
  const TimeNs deadline = SteadyNow() + timeout;
  for (;;) {
    if (b.state.load(std::memory_order_relaxed) == BackendState::kUp &&
        b.healthy.load(std::memory_order_relaxed) &&
        b.weight.load(std::memory_order_relaxed) > 0.0) {
      return Status::Ok();
    }
    if (SteadyNow() > deadline) {
      return UnavailableError(b.addr.name + " not healthy within timeout");
    }
    SleepNs(2 * kMillisecond);
  }
}

BackendSnapshot Dispatcher::snapshot(size_t backend) const {
  const Backend& b = *backends_[backend];
  BackendSnapshot snap;
  snap.name = b.addr.name;
  snap.host = b.addr.host;
  snap.port = b.addr.port;
  snap.state = b.state.load(std::memory_order_relaxed);
  snap.healthy = b.healthy.load(std::memory_order_relaxed);
  snap.weight = b.weight.load(std::memory_order_relaxed);
  snap.latency_ewma_ms = b.lat_ewma_ms.load(std::memory_order_relaxed);
  snap.error_ewma = b.err_ewma.load(std::memory_order_relaxed);
  snap.connections = OpenConnections(b);
  snap.requests = b.requests->value();
  snap.errors = b.errors->value();
  return snap;
}

std::vector<BackendSnapshot> Dispatcher::snapshots() const {
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) out.push_back(snapshot(i));
  return out;
}

DispatcherStats Dispatcher::stats() const {
  DispatcherStats s;
  s.connections = connections_->value();
  s.failovers = failovers_->value();
  s.no_backend = no_backend_->value();
  s.drains = drains_->value();
  s.probe_failures = probe_failures_->value();
  return s;
}

}  // namespace nagano::dispatch
