#include "server/serving.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>

#include "server/access_log.h"

namespace nagano::server {
namespace {

// Copies the shared entity bytes into out.body (include_body callers only):
// one string copy from body_ref, or the chunk concatenation for plans.
void CopySharedBody(ServeOutcome& out) {
  if (out.body_ref != nullptr) {
    out.body = *out.body_ref;
    return;
  }
  if (out.body_chunks.empty()) return;
  size_t total = 0;
  for (const auto& chunk : out.body_chunks) total += chunk->size();
  out.body.reserve(total);
  for (const auto& chunk : out.body_chunks) out.body += *chunk;
}

// Fills the zero-copy handles of `out` from a cached object: flat entries
// travel as a single body_ref, composition plans as one ref per chunk.
void FillCachedEntity(ServeOutcome& out,
                      const std::shared_ptr<const cache::CachedObject>& obj,
                      bool include_body) {
  out.bytes = obj->entity_size();
  out.entity_headers = cache::EntityHeadersRef(obj);
  if (obj->is_plan()) {
    out.body_chunks = cache::BodyChunkRefs(obj);
  } else {
    out.body_ref = cache::BodyRef(obj);
  }
  if (include_body) CopySharedBody(out);
}

// Seed for the backoff jitter stream (deterministic per server).
constexpr uint64_t kBackoffSeed = 0x7365727665ULL;  // "serve"

}  // namespace

Status RetryOptions::Validate() const {
  if (max_attempts == 0) {
    return InvalidArgumentError("RetryOptions.max_attempts must be >= 1");
  }
  if (initial_backoff < 0 || max_backoff < 0) {
    return InvalidArgumentError("RetryOptions backoffs must be >= 0");
  }
  if (multiplier < 1.0) {
    return InvalidArgumentError("RetryOptions.multiplier must be >= 1");
  }
  if (jitter < 0.0 || jitter > 1.0) {
    return InvalidArgumentError("RetryOptions.jitter must be in [0, 1]");
  }
  return Status::Ok();
}

Status DynamicPageServer::Options::Validate() const {
  if (Status s = retry.Validate(); !s.ok()) return s;
  if (default_deadline < 0) {
    return InvalidArgumentError(
        "DynamicPageServer::Options.default_deadline must be >= 0");
  }
  return Status::Ok();
}

DynamicPageServer::DynamicPageServer(cache::ObjectCache* cache,
                                     pagegen::PageRenderer* renderer,
                                     Options options)
    : cache_(cache),
      renderer_(renderer),
      options_((ValidateOrDie(options, "DynamicPageServer::Options"),
                std::move(options))),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()),
      backoff_rng_(kBackoffSeed) {
  assert(cache_ && renderer_);
  const auto scope = metrics::Scope::Resolve(options_.metrics, "serve");
  static_hits_ = scope.GetCounter("nagano_serve_static_hits_total",
                                  "requests answered from the static file set");
  cache_hits_ = scope.GetCounter("nagano_serve_cache_hits_total",
                                 "dynamic requests answered from cache");
  cache_misses_ = scope.GetCounter("nagano_serve_cache_misses_total",
                                   "dynamic requests that forced generation");
  not_found_ =
      scope.GetCounter("nagano_serve_not_found_total", "requests with no page");
  errors_ =
      scope.GetCounter("nagano_serve_errors_total", "requests that failed");
  stale_serves_ = scope.GetCounter(
      "nagano_serve_stale_total",
      "degraded responses served from the last-known-good cached copy");
  retries_ = scope.GetCounter("nagano_serve_retries_total",
                              "transient generation failures retried");
  deadline_exceeded_ =
      scope.GetCounter("nagano_serve_deadline_exceeded_total",
                       "retry budgets cut short by the request deadline");
}

void DynamicPageServer::AddStaticPage(std::string path, std::string body) {
  auto obj = std::make_shared<cache::CachedObject>();
  obj->body = std::move(body);
  obj->entity_headers =
      "Content-Length: " + std::to_string(obj->body.size()) + "\r\n";
  std::lock_guard<std::mutex> lock(static_mutex_);
  static_pages_[std::move(path)] = std::move(obj);
}

bool DynamicPageServer::ShouldCache(std::string_view path) const {
  for (const auto& prefix : options_.never_cache_prefixes) {
    if (path.starts_with(prefix)) return false;
  }
  return true;
}

void DynamicPageServer::SetAccessLog(AccessLog* log, const Clock* clock) {
  access_log_ = log;
  log_clock_ = clock ? clock : &RealClock::Instance();
}

ServeOutcome DynamicPageServer::Serve(std::string_view path, bool include_body,
                                      TimeNs deadline) {
  if (deadline == 0 && options_.default_deadline > 0) {
    deadline = clock_->Now() + options_.default_deadline;
  }
  ServeOutcome out = ServeInternal(path, include_body, deadline);
  if (access_log_ != nullptr) {
    access_log_->Append(log_clock_->Now(), path, out.cls, out.bytes,
                        out.cpu_cost);
  }
  return out;
}

Status DynamicPageServer::GenerateWithRetry(
    TimeNs deadline, uint32_t* retries,
    const std::function<Status(bool* joined)>& render) {
  const RetryOptions& retry = options_.retry;
  TimeNs backoff = retry.initial_backoff;
  Status last = InternalError("no attempt made");
  for (uint32_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
    bool joined = false;
    last = render(&joined);
    if (last.ok()) return last;
    // kNotFound is a stable answer and anything non-transient is a bug or
    // a hard failure: retrying either just burns the deadline. A follower
    // got its leader's failure; the leader's retries speak for the herd.
    if (!IsTransient(last) || joined) return last;
    if (attempt + 1 >= retry.max_attempts) break;

    TimeNs pause = backoff;
    if (retry.jitter > 0.0 && pause > 0) {
      std::lock_guard<std::mutex> lock(backoff_mutex_);
      const double scale =
          1.0 - retry.jitter + 2.0 * retry.jitter * backoff_rng_.NextDouble();
      pause = static_cast<TimeNs>(static_cast<double>(pause) * scale);
    }
    if (deadline != 0 && clock_->Now() + pause >= deadline) {
      deadline_exceeded_->Increment();
      break;
    }
    if (options_.sleep_on_backoff && pause > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(pause));
    }
    backoff = std::min<TimeNs>(
        retry.max_backoff,
        static_cast<TimeNs>(static_cast<double>(backoff) * retry.multiplier));
    ++*retries;
    retries_->Increment();
  }
  return last;
}

ServeOutcome DynamicPageServer::DegradeToStale(std::string_view path,
                                               bool include_body,
                                               Status error) {
  ServeOutcome out;
  out.error = error;
  if (options_.serve_stale_on_error) {
    if (auto stale = cache_->LookupStale(path)) {
      stale_serves_->Increment();
      out.cls = ServeClass::kDegradedStale;
      out.cpu_cost = options_.costs.cached_dynamic;
      out.stale_age = std::max<TimeNs>(0, clock_->Now() - stale->stored_at);
      FillCachedEntity(out, stale, include_body);
      return out;
    }
  }
  errors_->Increment();
  out.cls = ServeClass::kError;
  out.cpu_cost = options_.costs.not_found;
  return out;
}

ServeOutcome DynamicPageServer::ServeInternal(std::string_view path,
                                              bool include_body,
                                              TimeNs deadline) {
  ServeOutcome out;

  // 1. Static file system.
  {
    std::lock_guard<std::mutex> lock(static_mutex_);
    auto it = static_pages_.find(path);
    if (it != static_pages_.end()) {
      static_hits_->Increment();
      out.cls = ServeClass::kStatic;
      out.cpu_cost = options_.costs.static_page;
      FillCachedEntity(out, it->second, include_body);
      return out;
    }
  }

  // 2. Dynamic page cache. A transient lookup error (the cache path is
  // down) is NOT a miss: fall through to generation, which may still work.
  if (ShouldCache(path)) {
    auto cached = cache_->TryLookup(path);
    if (cached.ok()) {
      cache_hits_->Increment();
      out.cls = ServeClass::kCacheHit;
      out.cpu_cost = options_.costs.cached_dynamic;
      FillCachedEntity(out, cached.value(), include_body);
      return out;
    }
  }

  // 3. Generate (and usually cache) the page, retrying transient failures
  // within the deadline. A same-key miss herd shares one generator run: the
  // renderer's per-object flight hands every caller the leader's body.
  if (renderer_->CanGenerate(path)) {
    const bool cacheable = ShouldCache(path);
    std::shared_ptr<const std::string> shared;  // cacheable: the herd's body
    std::string owned;                          // never-cache: ours alone
    const Status status = GenerateWithRetry(
        deadline, &out.retries, [&](bool* joined) -> Status {
          if (cacheable) {
            auto body = renderer_->RenderAndCache(path, joined);
            if (body.ok()) shared = std::move(body).value();
            return body.status();
          }
          auto body = renderer_->RenderOnly(path);
          if (body.ok()) owned = std::move(body).value();
          return body.status();
        });
    if (status.ok()) {
      cache_misses_->Increment();
      out.cls = ServeClass::kCacheMissGenerated;
      out.cpu_cost = options_.costs.generate_dynamic;
      // Serve by reference: the render just stored the page, so alias the
      // cached object and the whole herd — and the HTTP write path — shares
      // one ref-counted copy. A composed page arrives as per-chunk refs,
      // same as a cache hit.
      std::shared_ptr<const cache::CachedObject> cached;
      if (cacheable) cached = cache_->Peek(path);
      if (cached != nullptr) {
        FillCachedEntity(out, cached, include_body);
      } else if (shared != nullptr) {
        // A concurrent invalidation dropped the entry between store and
        // here: serve the flight's body itself, still by reference.
        out.bytes = shared->size();
        out.body_ref = std::move(shared);
        if (include_body) CopySharedBody(out);
      } else {
        // A never-cache page: the rendered body is ours to give away.
        out.bytes = owned.size();
        out.body = std::move(owned);
      }
      return out;
    }
    if (status.code() != ErrorCode::kNotFound) {
      // 4. Retries exhausted: elegant degradation — last-known-good copy
      // over a 500.
      const uint32_t retries = out.retries;
      out = DegradeToStale(path, include_body, status);
      out.retries = retries;
      return out;
    }
  }

  not_found_->Increment();
  out.cls = ServeClass::kNotFound;
  out.cpu_cost = options_.costs.not_found;
  return out;
}

ServeStats DynamicPageServer::stats() const {
  ServeStats s;
  s.static_hits = static_hits_->value();
  s.cache_hits = cache_hits_->value();
  s.cache_misses = cache_misses_->value();
  s.not_found = not_found_->value();
  s.errors = errors_->value();
  s.stale_serves = stale_serves_->value();
  s.retries = retries_->value();
  s.deadline_exceeded = deadline_exceeded_->value();
  return s;
}

Status FrontEndOptions::Validate() const {
  return http.Validate();
}

HttpFrontEnd::HttpFrontEnd(DynamicPageServer* program, FrontEndOptions options)
    : program_(program),
      server_(std::make_unique<http::HttpServer>(
          [this](const http::HttpRequest& request) { return Handle(request); },
          (ValidateOrDie(options, "FrontEndOptions"),
           std::move(options.http)))) {
  assert(program_);
}

void HttpFrontEnd::EnableAdmin(metrics::MetricRegistry* registry,
                               HealthCheck health) {
  admin_registry_ = registry ? registry : &metrics::MetricRegistry::Default();
  health_ = std::move(health);
}

Status HttpFrontEnd::Start() { return server_->Start(); }
void HttpFrontEnd::Stop() { server_->Stop(); }

http::HttpResponse HttpFrontEnd::HandleAdmin(std::string_view path) {
  http::HttpResponse r;
  if (path == "/metrics") {
    r.status = 200;
    r.reason = "OK";
    r.headers["Content-Type"] = "text/plain; version=0.0.4; charset=utf-8";
    r.body = admin_registry_->RenderPrometheus();
    return r;
  }
  if (path == "/healthz") {
    HealthReport report = health_ ? health_() : HealthReport{};
    r.status = report.ok ? 200 : 503;
    r.reason = report.ok ? "OK" : "Service Unavailable";
    r.headers["Content-Type"] = "text/plain; charset=utf-8";
    if (report.ok) {
      // Probed every advisor pass: served by shared reference, so a
      // hit-only run's body-copy count stays zero.
      static const std::shared_ptr<const std::string> kHealthy =
          std::make_shared<const std::string>("ok\n");
      r.body_ref = kHealthy;
    } else {
      for (const std::string& problem : report.problems) {
        r.body += problem;
        r.body += '\n';
      }
      if (r.body.empty()) r.body = "unhealthy\n";
    }
    return r;
  }
  // /statusz
  r.status = 200;
  r.reason = "OK";
  r.headers["Content-Type"] = "text/plain; charset=utf-8";
  r.body = admin_registry_->RenderStatusz();
  return r;
}

http::HttpResponse HttpFrontEnd::Handle(const http::HttpRequest& request) {
  if (request.method != "GET" && request.method != "HEAD") {
    http::HttpResponse r;
    r.status = 405;
    r.reason = "Method Not Allowed";
    return r;
  }
  const std::string_view path = request.Path();
  if (admin_registry_ != nullptr &&
      (path == "/metrics" || path == "/healthz" || path == "/statusz")) {
    http::HttpResponse r = HandleAdmin(path);
    if (request.method == "HEAD") {
      r.body.clear();
      r.body_ref = nullptr;
    }
    return r;
  }
  // include_body=false: cached sources answer with body_ref/entity_headers
  // aliased into the cached object (the zero-copy path, misses included);
  // a generated never-cache page arrives moved into outcome.body. The
  // per-request budget is the server's own default_deadline.
  ServeOutcome outcome = program_->Serve(path, /*include_body=*/false);
  const auto fill_entity = [&request, &outcome](http::HttpResponse& r) {
    if (request.method == "HEAD") return;  // keep Content-Length: 0
    if (outcome.body_ref != nullptr || !outcome.body_chunks.empty()) {
      r.body_ref = std::move(outcome.body_ref);
      r.body_chunks = std::move(outcome.body_chunks);
      r.header_ref = std::move(outcome.entity_headers);
    } else {
      r.body = std::move(outcome.body);
    }
  };
  switch (outcome.cls) {
    case ServeClass::kStatic:
    case ServeClass::kCacheHit:
    case ServeClass::kCacheMissGenerated: {
      auto r = http::HttpResponse::Ok(std::string());
      fill_entity(r);
      r.headers["X-Cache"] =
          outcome.cls == ServeClass::kCacheHit ? "HIT"
          : outcome.cls == ServeClass::kStatic ? "STATIC"
                                               : "MISS";
      return r;
    }
    case ServeClass::kDegradedStale: {
      // Last-known-good copy: still a 200 (the viewer gets a page, per the
      // paper's availability-first stance) but labeled so clients and tests
      // can tell.
      auto r = http::HttpResponse::Ok(std::string());
      fill_entity(r);
      r.headers["X-Cache"] = "STALE";
      char age[32];
      std::snprintf(age, sizeof(age), "%.3f",
                    static_cast<double>(outcome.stale_age) / 1e9);
      r.headers["X-Nagano-Stale"] = age;
      return r;
    }
    case ServeClass::kNotFound:
      return http::HttpResponse::NotFound();
    case ServeClass::kError:
      return http::HttpResponse::ServerError();
  }
  return http::HttpResponse::ServerError("unreachable");
}

}  // namespace nagano::server
