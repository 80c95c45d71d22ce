// The dynamic-page serving path (paper §2, Fig. 6).
//
// "When a request for a dynamic page is received, the server program
// invoked to satisfy the request first determines if the page is cached.
// If so, the cached page is returned. Otherwise, the program must generate
// the page in order to satisfy the request [and] decide whether or not to
// cache the newly generated page."
//
// DynamicPageServer is that server program, invoked through an in-process
// FastCGI-like interface rather than CGI (the paper rejects CGI for its
// per-request process overhead). It is transport-independent: HttpFrontEnd
// adapts it to the real epoll HTTP server, and the cluster simulator calls
// Serve() directly with simulated time.
//
// Cost model (paper §2): a static page costs 2-10 ms of CPU; an uncached
// dynamic page "several orders of magnitude more"; a cached dynamic page is
// served "at roughly the same rate as static pages". Serve() reports the
// modeled CPU cost of each request so the simulator can charge it to a
// node, and the THRU bench measures the real cost too.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/object_cache.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/stats.h"
#include "http/message.h"
#include "http/server.h"
#include "pagegen/renderer.h"

namespace nagano::server {

struct CostModel {
  TimeNs static_page = FromMillis(5);          // 2-10 ms in the paper
  TimeNs cached_dynamic = FromMillis(5);       // ≈ static
  TimeNs generate_dynamic = FromMillis(500);   // ~2 orders of magnitude more
  TimeNs not_found = FromMillis(1);
};

enum class ServeClass : uint8_t {
  kStatic,
  kCacheHit,
  kCacheMissGenerated,
  // Generation failed (or the cache path was down) and the last-known-good
  // cached copy was served instead — §4.2's elegant degradation applied to
  // content freshness. HTTP layer marks these X-Cache: STALE plus an
  // X-Nagano-Stale age header.
  kDegradedStale,
  kNotFound,
  kError,
};

struct ServeOutcome {
  ServeClass cls = ServeClass::kNotFound;
  TimeNs cpu_cost = 0;    // modeled CPU charge
  size_t bytes = 0;       // response body size
  // Owned body copy, filled only when include_body was requested — the
  // zero-copy HTTP path reads body_ref instead.
  std::string body;
  // Zero-copy handles into the page's backing store, set for every page
  // served (static pages, cache hits, misses, degraded stale): the entity
  // bytes and the pre-serialized "Content-Length/..." header prefix. They
  // alias the cached object, so the page stays alive until the last holder
  // (e.g. an in-flight socket write) drops it.
  std::shared_ptr<const std::string> body_ref;
  // Scatter-gather alternative to body_ref, set when the cached source is a
  // composition plan: one ref per chunk (static text aliasing the plan
  // object, fragment bytes aliasing the pinned fragment snapshot), in body
  // order. The HTTP layer splices them straight into the socket write queue
  // — a composed page is served with zero body copies, same as a flat one.
  // Mutually exclusive with body_ref.
  std::vector<std::shared_ptr<const std::string>> body_chunks;
  std::shared_ptr<const std::string> entity_headers;
  uint32_t retries = 0;   // transparent retry attempts beyond the first
  TimeNs stale_age = 0;   // kDegradedStale: age of the copy served
  Status error;           // kError / kDegradedStale: what failed
};

struct ServeStats {
  uint64_t static_hits = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t not_found = 0;
  uint64_t errors = 0;
  uint64_t stale_serves = 0;        // degraded last-known-good responses
  uint64_t retries = 0;             // transient failures retried

  uint64_t total() const {
    return static_hits + cache_hits + cache_misses + not_found + errors +
           stale_serves;
  }
  double CacheHitRate() const {
    const uint64_t dynamic = cache_hits + cache_misses;
    return dynamic == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(dynamic);
  }
};

class DynamicPageServer {
 public:
  // Generator runs per miss, the first included, when each fails with a
  // transient error (IsTransient). Retries follow at once: a miss is rare
  // on a prefetched site, and the stale fallback covers an outage.
  static constexpr uint32_t kGenerateAttempts = 3;

  struct Options : OptionsBase {
    CostModel costs;
    // Staleness clock. nullptr = RealClock.
    const Clock* clock = nullptr;

    // Registry + instance label for the nagano_serve_* metrics.
    metrics::Options metrics;
  };

  DynamicPageServer(cache::ObjectCache* cache, pagegen::PageRenderer* renderer)
      : DynamicPageServer(cache, renderer, Options()) {}
  DynamicPageServer(cache::ObjectCache* cache, pagegen::PageRenderer* renderer,
                    Options options);

  // Registers an in-memory static file (the paper's file-system pages).
  void AddStaticPage(std::string path, std::string body);

  // Attaches an access log (see access_log.h); every Serve() appends one
  // record stamped with `clock`. Pass nullptr to detach. Not owned.
  void SetAccessLog(class AccessLog* log, const Clock* clock = nullptr);

  // Serves one page. `include_body` false lets the simulator skip the body
  // copy on its hot path.
  ServeOutcome Serve(std::string_view path, bool include_body = true);

  ServeStats stats() const;
  const CostModel& costs() const { return options_.costs; }

 private:
  ServeOutcome ServeInternal(std::string_view path, bool include_body);
  // The degraded fallback: last-known-good copy, or kError when there is
  // none.
  ServeOutcome DegradeToStale(std::string_view path, bool include_body,
                              Status error);

  cache::ObjectCache* cache_;
  pagegen::PageRenderer* renderer_;
  Options options_;
  const Clock* clock_;
  class AccessLog* access_log_ = nullptr;
  const Clock* log_clock_ = nullptr;

  // Static pages are stored as ref-counted CachedObjects (body + the same
  // pre-serialized entity-header prefix the cache builds) so the serving
  // path hands them out by reference exactly like a cache hit.
  std::mutex static_mutex_;
  std::map<std::string, std::shared_ptr<const cache::CachedObject>,
           std::less<>>
      static_pages_;

  // Registry cells behind the legacy stats() view.
  metrics::Counter* static_hits_;
  metrics::Counter* cache_hits_;
  metrics::Counter* cache_misses_;
  metrics::Counter* not_found_;
  metrics::Counter* errors_;
  metrics::Counter* stale_serves_;
  metrics::Counter* retries_;
};

// One site-health verdict for /healthz: overall up/down plus the reasons a
// probe failed (empty when healthy).
struct HealthReport {
  bool ok = true;
  std::vector<std::string> problems;
};

using HealthCheck = std::function<HealthReport()>;

struct FrontEndOptions : OptionsBase {
  http::HttpServer::Options http;

  Status Validate() const;
};

// Adapts a DynamicPageServer to the epoll HTTP server, and optionally
// exposes the live admin surface:
//   /metrics  Prometheus text exposition (format 0.0.4)
//   /healthz  200 "ok" / 503 with one problem per line
//   /statusz  human-readable per-subsystem snapshot
class HttpFrontEnd {
 public:
  explicit HttpFrontEnd(DynamicPageServer* program,
                        FrontEndOptions options = {});

  // Turns on /metrics, /healthz and /statusz, served from `registry`
  // (nullptr = the process-wide Default()). `health` backs /healthz; with no
  // probe the endpoint always answers 200. Call before Start() — the admin
  // paths shadow any same-named cached page.
  void EnableAdmin(metrics::MetricRegistry* registry = nullptr,
                   HealthCheck health = nullptr);

  Status Start();
  void Stop();
  uint16_t port() const { return server_->port(); }
  // The HTTP server itself, for in-process connection handoff
  // (HttpServer::Adopt) from the dispatcher tier.
  http::HttpServer& server() { return *server_; }
  http::ServerStats http_stats() const { return server_->stats(); }
  // Per-reactor request totals — the load-balance view (see
  // HttpServer::reactor_requests).
  std::vector<uint64_t> reactor_requests() const {
    return server_->reactor_requests();
  }

 private:
  http::HttpResponse Handle(const http::HttpRequest& request);
  http::HttpResponse HandleAdmin(std::string_view path);

  DynamicPageServer* program_;
  metrics::MetricRegistry* admin_registry_ = nullptr;  // null = admin off
  HealthCheck health_;
  std::unique_ptr<http::HttpServer> server_;
};

}  // namespace nagano::server
