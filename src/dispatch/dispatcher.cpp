#include "dispatch/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace nagano::dispatch {
namespace {

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
  if (Status s = http.Validate(); !s.ok()) return s;
  if (probe_interval <= 0) {
    return InvalidArgumentError("probe_interval must be > 0");
  }
  if (probe_timeout <= 0 || connect_timeout <= 0 || io_timeout <= 0) {
    return InvalidArgumentError("dispatcher socket timeouts must be > 0");
  }
  if (latency_alpha <= 0.0 || latency_alpha > 1.0 || error_alpha <= 0.0 ||
      error_alpha > 1.0) {
    return InvalidArgumentError("EWMA alphas must be in (0, 1]");
  }
  if (drain_grace < 0 || drain_deadline <= 0) {
    return InvalidArgumentError(
        "drain_grace must be >= 0 and drain_deadline > 0");
  }
  return Status::Ok();
}

// Per-backend routing state. Atomics carry everything the reactor threads
// read on the proxy path; the EWMA fold state at the bottom belongs to the
// advisor thread alone (plus the synchronous first pass inside Start(),
// which happens before any reactor exists).
struct Dispatcher::Backend {
  BackendAddress addr;
  std::string site;  // fault site: "<instance>/<name>"

  std::atomic<BackendState> state{BackendState::kUp};
  std::atomic<bool> healthy{false};
  std::atomic<double> weight{0.0};
  // Bumped to lazily invalidate pinned leases (drain, reinstate).
  std::atomic<uint64_t> epoch{0};
  std::atomic<int64_t> inflight{0};
  // Reinstate() -> advisor: forget the previous incarnation's EWMA history.
  std::atomic<bool> reset_ewma{false};

  // Live observations the proxy path deposits and the advisor drains
  // (exchange-to-zero) each probe pass.
  std::atomic<uint64_t> obs_ok{0};
  std::atomic<uint64_t> obs_err{0};
  std::atomic<uint64_t> obs_lat_ns{0};

  // Written only by the advisor (and Start()'s synchronous first pass,
  // before any other thread exists); atomic so snapshot() can read them.
  std::atomic<double> lat_ewma_ms{0.0};
  std::atomic<double> err_ewma{0.0};
  bool ewma_primed = false;  // advisor-only
  std::unique_ptr<http::HttpClient> prober;

  metrics::Counter* requests = nullptr;
  metrics::Counter* errors = nullptr;
  metrics::Gauge* weight_gauge = nullptr;
};

// The per-client-connection pin: which backend this connection rides, under
// which epoch, over which keep-alive socket. Lives in ConnectionContext::user
// and dies with the connection (or earlier, on failover/epoch bump).
struct Dispatcher::Lease {
  size_t backend = 0;
  uint64_t epoch = 0;
  std::unique_ptr<http::HttpClient> client;
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
  options_.http.metrics.registry = scope.registry;
  if (options_.http.metrics.instance.empty()) {
    options_.http.metrics.instance = instance_ + "/front";
  }

  requests_ = scope.GetCounter("nagano_dispatch_requests_total",
                               "requests entering the proxy path");
  failovers_ = scope.GetCounter("nagano_dispatch_failovers_total",
                                "requests retried on another backend");
  no_backend_ = scope.GetCounter("nagano_dispatch_no_backend_total",
                                 "503s served: no routable backend");
  proxy_errors_ = scope.GetCounter("nagano_dispatch_proxy_errors_total",
                                   "502s served: every attempt failed");
  drains_ = scope.GetCounter("nagano_dispatch_drains_total",
                             "backend drains initiated");
  probe_failures_ = scope.GetCounter("nagano_dispatch_probe_failures_total",
                                     "advisor probes that failed");
  bytes_to_backends_ = scope.GetCounter("nagano_dispatch_backend_bytes_out_total",
                                        "request bytes proxied to backends");
  bytes_from_backends_ =
      scope.GetCounter("nagano_dispatch_backend_bytes_in_total",
                       "response bytes proxied from backends");

  backends_.reserve(backends.size());
  for (size_t i = 0; i < backends.size(); ++i) {
    auto b = std::make_unique<Backend>();
    b->addr = std::move(backends[i]);
    if (b->addr.name.empty()) b->addr.name = "b" + std::to_string(i);
    b->site = instance_ + "/" + b->addr.name;
    metrics::Labels labels = scope.With("backend", b->addr.name);
    b->requests = scope.registry->GetCounter(
        "nagano_dispatch_backend_requests_total", labels,
        "requests proxied to this backend");
    b->errors = scope.registry->GetCounter(
        "nagano_dispatch_backend_errors_total", labels,
        "proxy attempts against this backend that failed");
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

  server_ = std::make_unique<http::HttpServer>(
      [this](http::HttpRequest& request, http::ConnectionContext& ctx) {
        return Proxy(request, ctx);
      },
      options_.http);
}

Dispatcher::~Dispatcher() { Stop(); }

Status Dispatcher::Start() {
  if (running_.exchange(true)) return Status::Ok();
  // Prime weights synchronously so the first accepted connection has a
  // routable backend instead of a startup 503.
  ProbeAll();
  if (Status s = server_->Start(); !s.ok()) {
    running_.store(false);
    return s;
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
  server_->Stop();
  {
    std::lock_guard<std::mutex> lock(advisor_mutex_);
    advisor_stop_ = true;
  }
  advisor_cv_.notify_all();
  if (advisor_.joinable()) advisor_.join();
}

uint16_t Dispatcher::port() const { return server_->port(); }

int Dispatcher::PickBackend(Rng& rng, int exclude) const {
  struct Candidate {
    size_t index;
    double weight;
  };
  Candidate candidates[8];
  size_t n = 0;
  double total = 0.0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (static_cast<int>(i) == exclude) continue;
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
  // Two weighted draws, then break the tie toward the emptier queue: the
  // power-of-two-choices guard against herding onto one heavy weight.
  const double load_a =
      double(backends_[a.index]->inflight.load(std::memory_order_relaxed)) /
      a.weight;
  const double load_b =
      double(backends_[b.index]->inflight.load(std::memory_order_relaxed)) /
      b.weight;
  return static_cast<int>(load_a <= load_b ? a.index : b.index);
}

Result<http::HttpResponse> Dispatcher::Forward(
    Backend& backend, http::HttpClient& client,
    const http::HttpRequest& request) {
  if (fault::ActiveWindow(options_.faults, "dispatch", backend.site,
                          "backend")) {
    client.Close();
    return UnavailableError(backend.addr.name + " is down (outage window)");
  }
  if (!client.connected()) {
    if (Status s = fault::Check(options_.faults, "dispatch", backend.site,
                                "connect");
        !s.ok()) {
      return s;
    }
  }
  if (Status s =
          fault::Check(options_.faults, "dispatch", backend.site, "proxy_write");
      !s.ok()) {
    client.Close();
    return s;
  }
  Result<http::HttpResponse> result = client.Roundtrip(request);
  if (!result.ok()) return result;
  if (Status s =
          fault::Check(options_.faults, "dispatch", backend.site, "proxy_read");
      !s.ok()) {
    client.Close();
    return s;
  }
  return result;
}

http::HttpResponse Dispatcher::Proxy(http::HttpRequest& request,
                                     http::ConnectionContext& ctx) {
  requests_->Increment();
  if (request.Path() == "/dispatchz") return DispatchzPage();

  // Per-reactor-thread draw stream; the seed offset keeps threads unrelated.
  static std::atomic<uint64_t> thread_counter{0};
  thread_local Rng rng(options_.seed + 0x9e3779b97f4a7c15ULL *
                                           (1 + thread_counter.fetch_add(1)));

  // The request is forwarded as parsed, minus the hop-by-hop headers:
  // connection management stays between dispatcher and backend, so the
  // client's Connection header must not leak through (a "Connection:
  // close" would tear down the pooled socket).
  request.headers.erase("Connection");
  request.headers.erase("Keep-Alive");

  auto lease = std::static_pointer_cast<Lease>(ctx.user);
  if (lease != nullptr) {
    const Backend& pinned = *backends_[lease->backend];
    if (lease->epoch != pinned.epoch.load(std::memory_order_acquire) ||
        pinned.state.load(std::memory_order_relaxed) == BackendState::kOut ||
        !pinned.healthy.load(std::memory_order_relaxed)) {
      lease = nullptr;
      ctx.user = nullptr;
    }
  }

  int exclude = -1;
  Status last_error = Status::Ok();
  for (size_t attempt = 0; attempt <= options_.failover_attempts; ++attempt) {
    if (lease == nullptr) {
      const int pick = PickBackend(rng, exclude);
      if (pick < 0) {
        no_backend_->Increment();
        return http::HttpResponse::ServiceUnavailable("no routable backend");
      }
      auto fresh = std::make_shared<Lease>();
      fresh->backend = static_cast<size_t>(pick);
      fresh->epoch =
          backends_[pick]->epoch.load(std::memory_order_acquire);
      http::HttpClient::Options copts;
      copts.connect_timeout = options_.connect_timeout;
      copts.io_timeout = options_.io_timeout;
      fresh->client = std::make_unique<http::HttpClient>(
          backends_[pick]->addr.host, backends_[pick]->addr.port, copts);
      lease = fresh;
      ctx.user = fresh;
    }

    Backend& b = *backends_[lease->backend];
    b.inflight.fetch_add(1, std::memory_order_acq_rel);
    const TimeNs t0 = SteadyNow();
    Result<http::HttpResponse> result = Forward(b, *lease->client, request);
    const TimeNs elapsed = SteadyNow() - t0;
    b.inflight.fetch_sub(1, std::memory_order_acq_rel);

    if (result.ok()) {
      b.requests->Increment();
      b.obs_ok.fetch_add(1, std::memory_order_relaxed);
      b.obs_lat_ns.fetch_add(static_cast<uint64_t>(std::max<TimeNs>(elapsed, 0)),
                             std::memory_order_relaxed);
      bytes_to_backends_->Increment(lease->client->last_sent_bytes());
      bytes_from_backends_->Increment(lease->client->last_received_bytes());

      http::HttpResponse response = std::move(result.value());
      // The backend's keep-alive decision is hop-by-hop too; the front end
      // decides the client side from the client's own request.
      response.headers.erase("Connection");
      response.headers["X-Nagano-Backend"] = b.addr.name;
      if (!response.body.empty() && response.body_ref == nullptr &&
          response.body_chunks.empty()) {
        // Hand the body to the reactor's writev path by reference so the
        // front never counts a body copy for proxied pages.
        response.body_ref =
            std::make_shared<const std::string>(std::move(response.body));
        response.body.clear();
      }
      return response;
    }

    // Failed attempt: eject the backend from routing until the advisor's
    // next successful probe re-admits it, drop the pin, try elsewhere.
    last_error = result.status();
    b.errors->Increment();
    b.obs_err.fetch_add(1, std::memory_order_relaxed);
    b.healthy.store(false, std::memory_order_relaxed);
    exclude = static_cast<int>(lease->backend);
    lease = nullptr;
    ctx.user = nullptr;
    if (attempt < options_.failover_attempts) failovers_->Increment();
  }

  proxy_errors_->Increment();
  http::HttpResponse response;
  response.status = 502;
  response.reason = "Bad Gateway";
  response.body = "every backend attempt failed: " + last_error.ToString();
  response.headers["Content-Type"] = "text/plain";
  return response;
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
    double probe_lat_ms = 0.0;
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
        probe_lat_ms = double(SteadyNow() - t0) / double(kMillisecond);
      } else {
        probe_failures_->Increment();
      }
    }

    // Fold the live proxy-path observations since the last pass; the probe
    // itself stands in when the backend carried no traffic.
    const uint64_t ok = b.obs_ok.exchange(0, std::memory_order_acq_rel);
    const uint64_t err = b.obs_err.exchange(0, std::memory_order_acq_rel);
    const uint64_t lat_ns = b.obs_lat_ns.exchange(0, std::memory_order_acq_rel);
    const double err_sample =
        (ok + err) > 0 ? double(err) / double(ok + err) : (probe_ok ? 0.0 : 1.0);
    const double lat_sample =
        ok > 0 ? double(lat_ns) / double(ok) / double(kMillisecond)
               : probe_lat_ms;
    double lat_ewma = b.lat_ewma_ms.load(std::memory_order_relaxed);
    double err_ewma = b.err_ewma.load(std::memory_order_relaxed);
    if (!b.ewma_primed) {
      lat_ewma = lat_sample;
      err_ewma = err_sample;
      b.ewma_primed = probe_ok || (ok + err) > 0;
    } else {
      if (ok > 0 || probe_ok) {
        lat_ewma = options_.latency_alpha * lat_sample +
                   (1.0 - options_.latency_alpha) * lat_ewma;
      }
      err_ewma = options_.error_alpha * err_sample +
                 (1.0 - options_.error_alpha) * err_ewma;
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
  // No new assignments from this moment; pinned keep-alive connections keep
  // using the backend through the grace period.
  b.weight.store(0.0, std::memory_order_relaxed);
  b.weight_gauge->Set(0.0);
  if (options_.drain_grace > 0) SleepNs(options_.drain_grace);
  // The lazy unpin: pinned leases see the stale epoch on their next request
  // and re-pick. Client connections are never touched.
  b.epoch.fetch_add(1, std::memory_order_acq_rel);
  const TimeNs deadline = SteadyNow() + options_.drain_deadline;
  while (b.inflight.load(std::memory_order_acquire) > 0) {
    if (SteadyNow() > deadline) {
      return UnavailableError(b.addr.name +
                              " still has in-flight requests at the drain "
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
  // Forget the previous incarnation: stale pins, stale EWMA history, and a
  // possibly half-open probe socket all belong to the process that left.
  b.epoch.fetch_add(1, std::memory_order_acq_rel);
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
  snap.inflight = static_cast<uint64_t>(
      std::max<int64_t>(0, b.inflight.load(std::memory_order_relaxed)));
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
  s.requests = requests_->value();
  s.failovers = failovers_->value();
  s.no_backend = no_backend_->value();
  s.proxy_errors = proxy_errors_->value();
  s.drains = drains_->value();
  s.probe_failures = probe_failures_->value();
  s.bytes_to_backends = bytes_to_backends_->value();
  s.bytes_from_backends = bytes_from_backends_->value();
  return s;
}

http::HttpResponse Dispatcher::DispatchzPage() const {
  std::string body = "dispatcher " + instance_ + "\n";
  for (const BackendSnapshot& b : snapshots()) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-12s %s:%u state=%-8s healthy=%d weight=%.4f "
                  "lat_ewma=%.3fms err_ewma=%.4f inflight=%" PRIu64
                  " requests=%" PRIu64 " errors=%" PRIu64 "\n",
                  b.name.c_str(), b.host.c_str(), unsigned(b.port),
                  std::string(BackendStateName(b.state)).c_str(),
                  int(b.healthy), b.weight, b.latency_ewma_ms, b.error_ewma,
                  b.inflight, b.requests, b.errors);
    body += line;
  }
  http::HttpResponse response = http::HttpResponse::Ok(std::move(body));
  response.headers["Content-Type"] = "text/plain";
  return response;
}

}  // namespace nagano::dispatch
