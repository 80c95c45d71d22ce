// ServingSite — the assembled publishing pipeline of paper Fig. 6:
//
//   scoring feed -> database -> trigger monitor -> DUP over the ODG ->
//   page renderer -> object cache -> server program -> clients
//
// One ServingSite models one SP2's triggering/caching/rendering SMP plus
// its cache contents; the cluster simulation replicates its serving
// behaviour across complexes, and HttpFrontEnd (src/server) exposes it
// over real HTTP.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/object_cache.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "db/database.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"
#include "server/serving.h"
#include "trigger/trigger_monitor.h"

namespace nagano::core {

struct SiteOptions : OptionsBase {
  pagegen::OlympicConfig olympic;
  trigger::TriggerOptions trigger;
  server::CostModel costs;
  const Clock* clock = nullptr;     // defaults to RealClock
  // Fault injector threaded into every subsystem this site builds (db
  // commit/changes, cache lookup, trigger notify). Null = injection off.
  fault::FaultInjector* faults = nullptr;
  // Durability: when set, the site's database write-ahead-logs every commit
  // into it, and WarmRestart() can rebuild the site from it after a crash.
  // Not owned; must outlive the site. Single-stream convenience; a sharded
  // site (db_shards > 1) uses shard_wals instead.
  wal::WriteAheadLog* wal = nullptr;
  // Storage-tier sharding (db::DatabaseOptions::shards): partitions the
  // site's database into this many independent shards, each with its own
  // change-log sequence — and, when shard_wals is set (one stream per
  // shard, e.g. from wal::OpenShardWals), its own WAL stream and
  // checkpoint image, recovered in parallel by WarmRestart().
  size_t db_shards = 1;
  std::vector<wal::WriteAheadLog*> shard_wals;
  // Keep invalidated cache entries reachable for the serving path's
  // last-known-good fallback (ObjectCache retain_stale).
  bool retain_stale = false;
  // Fragment-first composition (pagegen::RendererOptions::compose_pages):
  // pages embedding fragments are cached as composition plans — static
  // chunks + pinned fragment refs — so a fragment commit patches every
  // embedding page in place instead of re-rendering it. Off = whole-page
  // mode, the pre-plan baseline the update bench compares against.
  bool compose_pages = true;
  // Registry + "site" label shared by every subsystem this site builds
  // (cache, trigger, renderer, serving path, ODG, database, access log).
  // An empty instance label keeps auto-assignment per subsystem, so test
  // fixtures never alias.
  metrics::Options metrics;

  Status Validate() const;
};

class ServingSite {
 public:
  // Builds the database content, registers generators, and constructs the
  // trigger monitor (not yet started).
  static Result<std::unique_ptr<ServingSite>> Create(SiteOptions options);

  // Wraps an existing database — a replica fed by the replication tree
  // (paper Fig. 5: each complex ran the pipeline against its own copy).
  // The database must already carry the Olympic schema; content arrives
  // through the replicated change log, and this site's trigger monitor
  // reacts to replicated commits exactly as the master's does to local
  // ones.
  static Result<std::unique_ptr<ServingSite>> CreateAround(
      SiteOptions options, std::unique_ptr<db::Database> database);

  // The crash-recovery path (paper §3: a failed complex catches up from the
  // database and rejoins serving). Requires options.wal: recovers a fresh
  // database from the newest checkpoint plus the WAL tail, then assembles
  // the pipeline around it. The site comes up in "recovering" state —
  // Health() reports not-ready (gating /healthz) until the caller pulls the
  // post-checkpoint delta through replication, repopulates the cache
  // (PrefetchAll), and CaughtUp() turns true.
  static Result<std::unique_ptr<ServingSite>> WarmRestart(SiteOptions options);

  ~ServingSite();

  ServingSite(const ServingSite&) = delete;
  ServingSite& operator=(const ServingSite&) = delete;

  // --- lifecycle -----------------------------------------------------------
  void StartTrigger() { trigger_->Start(); }
  void StopTrigger() { trigger_->Stop(); }
  // Wait for every committed change to be reflected in the cache. On
  // return, last_quiesced_seqno() covers at least every change committed
  // before the call.
  void Quiesce();

  // The highest change seqno known to be fully applied to the cache —
  // the freshness bound of DESIGN §6 ("after quiescence no cache read is
  // older than the last committed DB change").
  uint64_t last_quiesced_seqno() const {
    return last_quiesced_seqno_.load(std::memory_order_acquire);
  }

  // Verifies the §6 invariant directly: every cached object is
  // byte-identical to a fresh render against current database state.
  // Returns the number of objects checked, or an error naming the first
  // stale object. Call at quiescence; concurrent feed activity makes
  // "fresh" a moving target.
  Result<size_t> VerifyCacheConsistency();

  // Prefetch (§2): render and cache every fragment then every page, so the
  // steady state starts warm — "such pages were never invalidated from the
  // cache. Consequently, there were no cache misses for these pages."
  // Returns the number of objects cached.
  Result<size_t> PrefetchAll();

  // --- serving ---------------------------------------------------------------
  server::ServeOutcome Serve(std::string_view page, bool include_body = false) {
    return page_server_->Serve(page, include_body);
  }

  // --- the scoring feed --------------------------------------------------------
  Status RecordResult(int64_t event_id, int64_t rank, int64_t athlete_id,
                      double score) {
    return pagegen::OlympicSite::RecordResult(db_.get(), event_id, rank,
                                              athlete_id, score);
  }
  Status CompleteEvent(int64_t event_id) {
    return pagegen::OlympicSite::CompleteEvent(db_.get(), event_id);
  }
  Status PublishNews(int64_t article_id, int day, std::string_view title,
                     std::string_view body, int64_t sport_id = 1) {
    return pagegen::OlympicSite::PublishNews(db_.get(), article_id, day, title,
                                             body, sport_id);
  }

  // End-to-end freshness probe: commit one result for `event_id`, block
  // until the trigger monitor quiesces, and verify the cached event page
  // changed. Returns the wall-clock milliseconds from commit to cache
  // consistency (the paper's "within seconds" / "maximum of sixty seconds").
  Result<double> MeasureUpdateLatencyMs(int64_t event_id, int64_t rank,
                                        int64_t athlete_id, double score);

  // Live /healthz verdict: trigger running, cache populated, trigger
  // backlog bounded, propagation p99 inside the paper's 60 s freshness
  // bound, and — after a WarmRestart — post-restart catch-up complete.
  // Wire into HttpFrontEnd::EnableAdmin.
  server::HealthReport Health() const;

  // --- warm-restart catch-up -----------------------------------------------
  // Raises the seqno this recovered site must reach (typically the master's
  // LastSeqno at rejoin time) before it reports ready.
  void SetRejoinTarget(uint64_t seqno);
  // True once the recovered database has applied the catch-up target and
  // the cache is repopulated; latches (a site that caught up stays caught
  // up). Sites that never went through WarmRestart are always caught up.
  bool CaughtUp() const;
  bool recovering() const {
    return recovering_.load(std::memory_order_acquire);
  }

  // --- administrative drain --------------------------------------------------
  // Drain flag: while set, Health() reports "draining" (so a
  // /healthz-polling dispatcher advisor steers new traffic away) even
  // though the site itself keeps serving whatever still arrives. This is
  // how a rolling upgrade announces intent before the front tier's
  // connection drain starts.
  void SetDraining(bool draining) {
    draining_.store(draining, std::memory_order_release);
  }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // --- components -----------------------------------------------------------------
  db::Database& db() { return *db_; }
  odg::ObjectDependenceGraph& graph() { return *graph_; }
  cache::ObjectCache& cache() { return *cache_; }
  pagegen::PageRenderer& renderer() { return *renderer_; }
  trigger::TriggerMonitor& trigger_monitor() { return *trigger_; }
  server::DynamicPageServer& page_server() { return *page_server_; }
  const pagegen::OlympicConfig& olympic_config() const { return options_.olympic; }
  const Clock& clock() const { return *clock_; }
  // The registry every subsystem of this site registers into (the
  // process-wide Default() unless SiteOptions.metrics said otherwise).
  metrics::MetricRegistry& metrics_registry() { return *registry_; }

 private:
  explicit ServingSite(SiteOptions options);

  std::atomic<uint64_t> last_quiesced_seqno_{0};
  // Warm-restart state: CaughtUp() clears recovering_ once the target is
  // reached, so the const Health() path can latch it.
  mutable std::atomic<bool> recovering_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> catch_up_target_{0};
  SiteOptions options_;
  const Clock* clock_;
  metrics::MetricRegistry* registry_ = nullptr;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<odg::ObjectDependenceGraph> graph_;
  std::unique_ptr<cache::ObjectCache> cache_;
  std::unique_ptr<pagegen::PageRenderer> renderer_;
  std::unique_ptr<trigger::TriggerMonitor> trigger_;
  std::unique_ptr<server::DynamicPageServer> page_server_;
};

}  // namespace nagano::core
