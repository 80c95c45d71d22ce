#include "server/serving.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

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

}  // namespace

DynamicPageServer::DynamicPageServer(cache::ObjectCache* cache,
                                     pagegen::PageRenderer* renderer,
                                     Options options)
    : cache_(cache),
      renderer_(renderer),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()) {
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
}

void DynamicPageServer::AddStaticPage(std::string path, std::string body) {
  auto obj = std::make_shared<cache::CachedObject>();
  obj->body = std::move(body);
  obj->entity_headers =
      "Content-Length: " + std::to_string(obj->body.size()) + "\r\n";
  std::lock_guard<std::mutex> lock(static_mutex_);
  static_pages_[std::move(path)] = std::move(obj);
}

void DynamicPageServer::SetAccessLog(AccessLog* log, const Clock* clock) {
  access_log_ = log;
  log_clock_ = clock ? clock : &RealClock::Instance();
}

ServeOutcome DynamicPageServer::Serve(std::string_view path,
                                      bool include_body) {
  ServeOutcome out = ServeInternal(path, include_body);
  if (access_log_ != nullptr) {
    access_log_->Append(log_clock_->Now(), path, out.cls, out.bytes,
                        out.cpu_cost);
  }
  return out;
}

ServeOutcome DynamicPageServer::DegradeToStale(std::string_view path,
                                               bool include_body,
                                               Status error) {
  ServeOutcome out;
  out.error = error;
  if (auto stale = cache_->LookupStale(path)) {
    stale_serves_->Increment();
    out.cls = ServeClass::kDegradedStale;
    out.cpu_cost = options_.costs.cached_dynamic;
    out.stale_age = std::max<TimeNs>(0, clock_->Now() - stale->stored_at);
    FillCachedEntity(out, stale, include_body);
    return out;
  }
  errors_->Increment();
  out.cls = ServeClass::kError;
  out.cpu_cost = options_.costs.not_found;
  return out;
}

ServeOutcome DynamicPageServer::ServeInternal(std::string_view path,
                                              bool include_body) {
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
  auto cached = cache_->TryLookup(path);
  if (cached.ok()) {
    cache_hits_->Increment();
    out.cls = ServeClass::kCacheHit;
    out.cpu_cost = options_.costs.cached_dynamic;
    FillCachedEntity(out, cached.value(), include_body);
    return out;
  }

  // 3. Generate and cache the page. A same-key miss herd shares one
  // generator run: the renderer's per-object flight hands every caller the
  // leader's body. A transient failure is retried at once, up to
  // kGenerateAttempts runs. kNotFound is a stable answer and anything else
  // non-transient a hard failure, so neither is retried; nor is a
  // follower's copy of its leader's failure: the leader's chain is the
  // herd's only one, so an outage costs at most kGenerateAttempts generator
  // runs however large the herd.
  if (renderer_->CanGenerate(path)) {
    bool joined = false;
    auto body = renderer_->RenderAndCache(path, &joined);
    while (!body.ok() && IsTransient(body.status()) && !joined &&
           out.retries + 1 < kGenerateAttempts) {
      ++out.retries;
      retries_->Increment();
      body = renderer_->RenderAndCache(path, &joined);
    }
    if (body.ok()) {
      cache_misses_->Increment();
      out.cls = ServeClass::kCacheMissGenerated;
      out.cpu_cost = options_.costs.generate_dynamic;
      // Serve by reference: the render just stored the page, so alias the
      // cached object and the whole herd — and the HTTP write path — shares
      // one ref-counted copy. A composed page arrives as per-chunk refs,
      // same as a cache hit.
      if (auto stored = cache_->Peek(path)) {
        FillCachedEntity(out, stored, include_body);
      } else {
        // A concurrent invalidation dropped the entry between store and
        // here: serve the flight's body itself, still by reference.
        out.bytes = body.value()->size();
        out.body_ref = std::move(body).value();
        if (include_body) CopySharedBody(out);
      }
      return out;
    }
    if (body.status().code() != ErrorCode::kNotFound) {
      // 4. Retries exhausted: elegant degradation — last-known-good copy
      // over a 500.
      const uint32_t retries = out.retries;
      out = DegradeToStale(path, include_body, body.status());
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
  // include_body=false: every page served answers with body_ref (or
  // body_chunks) and entity_headers aliased into the cached object — the
  // zero-copy path, misses included.
  ServeOutcome outcome = program_->Serve(path, /*include_body=*/false);
  const auto fill_entity = [&request, &outcome](http::HttpResponse& r) {
    if (request.method == "HEAD") return;  // keep Content-Length: 0
    r.body_ref = std::move(outcome.body_ref);
    r.body_chunks = std::move(outcome.body_chunks);
    r.header_ref = std::move(outcome.entity_headers);
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
