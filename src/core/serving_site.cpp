#include "core/serving_site.h"

#include <algorithm>
#include <chrono>

namespace nagano::core {

Status SiteOptions::Validate() const {
  if (db_shards < 1) {
    return InvalidArgumentError("SiteOptions.db_shards must be >= 1");
  }
  if (!shard_wals.empty() && shard_wals.size() != db_shards) {
    return InvalidArgumentError(
        "SiteOptions.shard_wals must be empty or carry one stream per "
        "db shard");
  }
  if (wal != nullptr && !shard_wals.empty()) {
    return InvalidArgumentError(
        "SiteOptions: set wal or shard_wals, not both");
  }
  if (wal != nullptr && db_shards != 1) {
    return InvalidArgumentError(
        "SiteOptions: a sharded database takes shard_wals, not wal");
  }
  return trigger.Validate();
}

ServingSite::ServingSite(SiteOptions options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()) {}

namespace {

db::DatabaseOptions DbOptionsFor(const SiteOptions& options) {
  db::DatabaseOptions db_options;
  db_options.clock = options.clock ? options.clock : &RealClock::Instance();
  db_options.faults = options.faults;
  db_options.metrics = options.metrics;
  db_options.wal = options.wal;
  db_options.shards = options.db_shards;
  db_options.shard_wals = options.shard_wals;
  return db_options;
}

}  // namespace

Result<std::unique_ptr<ServingSite>> ServingSite::Create(SiteOptions options) {
  if (Status s = options.Validate(); !s.ok()) return s;
  auto database = std::make_unique<db::Database>(DbOptionsFor(options));
  if (Status s = pagegen::OlympicSite::Build(options.olympic, database.get());
      !s.ok()) {
    return s;
  }
  return CreateAround(std::move(options), std::move(database));
}

Result<std::unique_ptr<ServingSite>> ServingSite::WarmRestart(
    SiteOptions options) {
  if (options.wal == nullptr && options.shard_wals.empty()) {
    return InvalidArgumentError(
        "WarmRestart: SiteOptions.wal (or shard_wals) is required");
  }
  if (Status s = options.Validate(); !s.ok()) return s;
  auto database = std::make_unique<db::Database>(DbOptionsFor(options));
  if (Status s = database->Recover(); !s.ok()) return s;
  auto site = CreateAround(std::move(options), std::move(database));
  if (!site.ok()) return site;
  // The recovered state is only as fresh as the WAL; the site stays
  // not-ready until the caller raises the target to the live master's
  // seqno, catches up through replication, and repopulates the cache.
  site.value()->recovering_.store(true, std::memory_order_release);
  site.value()->catch_up_target_.store(site.value()->db_->LastSeqno(),
                                       std::memory_order_release);
  return site;
}

Result<std::unique_ptr<ServingSite>> ServingSite::CreateAround(
    SiteOptions options, std::unique_ptr<db::Database> database) {
  if (Status s = options.Validate(); !s.ok()) return s;
  if (database == nullptr) {
    return InvalidArgumentError("CreateAround: null database");
  }
  if (!database->HasTable("events")) {
    return FailedPreconditionError(
        "CreateAround: database lacks the Olympic schema");
  }
  std::unique_ptr<ServingSite> site(new ServingSite(std::move(options)));
  site->db_ = std::move(database);

  // Every subsystem registers into the same registry under the same site
  // label (auto-assignment stays per subsystem when the label is empty).
  const metrics::Options& site_metrics = site->options_.metrics;
  site->registry_ = site_metrics.registry ? site_metrics.registry
                                          : &metrics::MetricRegistry::Default();

  site->graph_ = std::make_unique<odg::ObjectDependenceGraph>(site_metrics);

  cache::ObjectCache::Options cache_options;
  cache_options.retain_stale = site->options_.retain_stale;
  cache_options.clock = site->clock_;
  cache_options.faults = site->options_.faults;
  cache_options.metrics = site_metrics;
  site->cache_ = std::make_unique<cache::ObjectCache>(cache_options);

  pagegen::RendererOptions renderer_options;
  renderer_options.compose_pages = site->options_.compose_pages;
  renderer_options.metrics = site_metrics;
  site->renderer_ = std::make_unique<pagegen::PageRenderer>(
      site->graph_.get(), site->cache_.get(), renderer_options);
  pagegen::OlympicSite::RegisterGenerators(site->options_.olympic,
                                           site->db_.get(),
                                           site->renderer_.get());

  db::Database* db_ptr = site->db_.get();
  site->options_.trigger.metrics = site_metrics;
  site->options_.trigger.clock = site->clock_;
  site->options_.trigger.faults = site->options_.faults;
  site->trigger_ = std::make_unique<trigger::TriggerMonitor>(
      db_ptr, site->graph_.get(), site->cache_.get(), site->renderer_.get(),
      [db_ptr](const db::ChangeRecord& change) {
        return pagegen::OlympicSite::MapChangeToDataNodes(change, *db_ptr);
      },
      site->options_.trigger);

  server::DynamicPageServer::Options serve_options;
  serve_options.costs = site->options_.costs;
  serve_options.clock = site->clock_;
  serve_options.metrics = site_metrics;
  site->page_server_ = std::make_unique<server::DynamicPageServer>(
      site->cache_.get(), site->renderer_.get(), serve_options);

  return site;
}

server::HealthReport ServingSite::Health() const {
  server::HealthReport report;
  if (!trigger_->running()) {
    report.problems.push_back("trigger monitor not running");
  }
  if (cache_->size() == 0) {
    report.problems.push_back("cache empty (site not prefetched)");
  }
  // Quiesce lag: a backlog far past the coalescing window means the trigger
  // monitor is falling behind the feed.
  const uint64_t backlog_bound =
      100 * std::max<uint64_t>(1, options_.trigger.batch_max);
  const uint64_t backlog = trigger_->backlog();
  if (backlog > backlog_bound) {
    report.problems.push_back("trigger backlog " + std::to_string(backlog) +
                              " changes exceeds bound " +
                              std::to_string(backlog_bound));
  }
  // The paper's freshness promise: updates visible within sixty seconds.
  const Histogram propagation = trigger_->stats().propagation_latency_ms;
  if (propagation.count() > 0 && propagation.Percentile(0.99) > 60'000.0) {
    report.problems.push_back("propagation p99 above the 60 s freshness bound");
  }
  // An administratively draining site fails /healthz so the dispatcher
  // advisor stops assigning it new connections ahead of a restart.
  if (draining()) {
    report.problems.push_back("draining: administratively removed from "
                              "rotation");
  }
  // A warm-restarted site is alive but not ready: it must not take traffic
  // (or pass /healthz) until it has caught up to the fleet.
  if (!CaughtUp()) {
    report.problems.push_back(
        "warm restart in progress: recovered seqno " +
        std::to_string(db_->LastSeqno()) + " behind catch-up target " +
        std::to_string(catch_up_target_.load(std::memory_order_acquire)));
  }
  report.ok = report.problems.empty();
  return report;
}

void ServingSite::SetRejoinTarget(uint64_t seqno) {
  uint64_t prev = catch_up_target_.load(std::memory_order_relaxed);
  while (prev < seqno && !catch_up_target_.compare_exchange_weak(
                             prev, seqno, std::memory_order_release)) {
  }
}

bool ServingSite::CaughtUp() const {
  if (!recovering_.load(std::memory_order_acquire)) return true;
  if (db_->LastSeqno() < catch_up_target_.load(std::memory_order_acquire)) {
    return false;
  }
  if (cache_->size() == 0) return false;  // not yet re-prefetched
  recovering_.store(false, std::memory_order_release);
  return true;
}

ServingSite::~ServingSite() {
  if (trigger_) trigger_->Stop();
}

Result<size_t> ServingSite::PrefetchAll() {
  size_t cached = 0;
  auto prefetch = [&](const std::string& object) -> Status {
    auto body = renderer_->RenderAndCache(object);
    if (!body.ok()) return body.status();
    ++cached;
    return Status::Ok();
  };
  // Fragments first so page renders splice them from the cache.
  for (const std::string& fragment : pagegen::OlympicSite::AllFragmentNames(
           options_.olympic, *db_)) {
    if (Status s = prefetch(fragment); !s.ok()) return s;
  }
  for (const std::string& page :
       pagegen::OlympicSite::AllPageNames(options_.olympic, *db_)) {
    if (Status s = prefetch(page); !s.ok()) return s;
  }
  return cached;
}

void ServingSite::Quiesce() {
  // Capture the seqno before waiting: everything committed before this
  // point is guaranteed applied once the trigger quiesces. Later commits
  // may also land, but this is the bound we can promise.
  const uint64_t committed = db_->LastSeqno();
  trigger_->Quiesce();
  uint64_t prev = last_quiesced_seqno_.load(std::memory_order_relaxed);
  while (prev < committed && !last_quiesced_seqno_.compare_exchange_weak(
                                 prev, committed, std::memory_order_release)) {
  }
}

Result<size_t> ServingSite::VerifyCacheConsistency() {
  size_t checked = 0;
  auto verify_one = [&](const std::string& key,
                        const cache::CachedObject& object) -> Status {
    // The pre-serialized entity prefix travels to clients verbatim on the
    // zero-copy hit path, so it must agree with the entity it rides with —
    // for a composition plan, with the summed chunk lengths.
    const std::string expected_headers =
        "Content-Length: " + std::to_string(object.entity_size()) +
        "\r\nX-Nagano-Version: " + std::to_string(object.version) + "\r\n";
    if (object.entity_headers != expected_headers) {
      return InternalError("entity headers out of sync for: " + key);
    }
    if (object.is_plan()) {
      size_t summed = 0;
      for (const cache::PlanChunk& chunk : object.plan) {
        if (chunk.is_fragment()) {
          if (chunk.source == nullptr) {
            return InternalError("plan for " + key +
                                 " has a fragment chunk with no snapshot: " +
                                 *chunk.fragment);
          }
          if (chunk.source->is_plan()) {
            return InternalError("plan for " + key +
                                 " pins a non-flat fragment: " +
                                 *chunk.fragment);
          }
          // At quiescence no plan may serve a retired snapshot: the chunk
          // must pin the very object the fragment's live entry holds.
          if (cache_->Peek(*chunk.fragment) != chunk.source) {
            return InternalError("plan for " + key +
                                 " references a retired snapshot of " +
                                 *chunk.fragment);
          }
        }
        summed += chunk.bytes().size();
      }
      if (summed != object.plan_bytes) {
        return InternalError("plan_bytes out of sync for: " + key);
      }
    }
    if (!renderer_->CanGenerate(key)) return Status::Ok();  // foreign entry
    auto fresh = renderer_->RenderOnly(key);
    if (!fresh.ok()) return fresh.status();
    if (fresh.value() != object.Materialize()) {
      return InternalError("stale cache entry: " + key);
    }
    ++checked;
    return Status::Ok();
  };
  // A page's fresh render splices fragments from the cache, so a stale
  // fragment could mask itself in a page comparison — but the fragment's
  // own entry is compared against a direct render too, so any staleness
  // surfaces somewhere in the sweep.
  for (const auto& [key, object] : cache_->Snapshot()) {
    if (Status s = verify_one(key, *object); !s.ok()) return s;
  }
  return checked;
}

Result<double> ServingSite::MeasureUpdateLatencyMs(int64_t event_id,
                                                   int64_t rank,
                                                   int64_t athlete_id,
                                                   double score) {
  const std::string page = pagegen::OlympicSite::EventPage(event_id);
  auto before = cache_->Peek(page);
  if (before == nullptr) {
    return FailedPreconditionError("event page not cached; prefetch first");
  }
  const uint64_t version_before = before->version;

  const auto start = std::chrono::steady_clock::now();
  if (Status s = RecordResult(event_id, rank, athlete_id, score); !s.ok()) {
    return s;
  }
  Quiesce();
  const auto end = std::chrono::steady_clock::now();

  auto after = cache_->Peek(page);
  if (after == nullptr || after->version <= version_before) {
    return InternalError("event page was not refreshed by the trigger monitor");
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace nagano::core
