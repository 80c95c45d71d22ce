#include "trigger/trigger_monitor.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/logging.h"

namespace nagano::trigger {
namespace {

// The tail re-reads the log at least this often even when no wake-up
// arrives, so a lost wake-up or a failed read only delays a change, far
// inside the paper's 60 s freshness bound.
constexpr std::chrono::milliseconds kTailPollInterval{100};

// True iff `cursor` is at or past `target` on every shard.
bool Covers(const db::ChangeCursor& cursor, const db::ChangeCursor& target) {
  for (size_t k = 0; k < target.positions.size(); ++k) {
    if (cursor.at(k) < target.positions[k]) return false;
  }
  return true;
}

}  // namespace

std::map<std::string, std::vector<std::string>> OlympicConservativePrefixes() {
  // The 1996 site could not tell which pages a scoring change affected, so
  // it invalidated whole page families. Any results/medal/event change
  // clears every page that *might* show results; news clears the news
  // family and the home pages.
  const std::vector<std::string> results_family = {
      "/day/", "/event/", "/sport/", "/athlete/", "/country/",
      "/medals", "frag:"};
  return {
      {"results", results_family},
      {"events", results_family},
      {"medals", results_family},
      {"countries", results_family},
      {"athletes", {"/athlete/", "/country/", "/event/"}},
      {"news", {"/news", "/day/", "/country/", "frag:news:latest"}},
  };
}

Status TriggerOptions::Validate() const {
  if (worker_threads != 1) {
    return InvalidArgumentError("TriggerOptions.worker_threads must be 1");
  }
  if (batch_max == 0) {
    return InvalidArgumentError("TriggerOptions.batch_max must be >= 1");
  }
  if (obsolescence_threshold < 0.0) {
    return InvalidArgumentError(
        "TriggerOptions.obsolescence_threshold must be >= 0");
  }
  return Status::Ok();
}

TriggerMonitor::TriggerMonitor(db::Database* db,
                               odg::ObjectDependenceGraph* graph,
                               cache::ObjectCache* cache,
                               pagegen::PageRenderer* renderer,
                               ChangeMapper mapper, TriggerOptions options)
    : db_(db),
      graph_(graph),
      cache_(cache),
      renderer_(renderer),
      mapper_(std::move(mapper)),
      options_((ValidateOrDie(options, "TriggerOptions"), std::move(options))),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()),
      faults_(options_.faults) {
  assert(db_ && graph_ && cache_ && renderer_ && mapper_);

  const auto scope = metrics::Scope::Resolve(options_.metrics, "trigger");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  changes_processed_ = scope.GetCounter("nagano_trigger_changes_processed_total",
                                        "database changes applied");
  batches_ =
      scope.GetCounter("nagano_trigger_batches_total", "coalesced DUP batches");
  dup_runs_ =
      scope.GetCounter("nagano_trigger_dup_runs_total", "DUP traversals");
  objects_updated_ = scope.GetCounter("nagano_trigger_objects_updated_total",
                                      "objects regenerated in place");
  objects_invalidated_ =
      scope.GetCounter("nagano_trigger_objects_invalidated_total",
                       "objects dropped from the cache");
  objects_skipped_ =
      scope.GetCounter("nagano_trigger_objects_skipped_total",
                       "affected but uncached objects left to on-demand render");
  render_failures_ = scope.GetCounter("nagano_trigger_render_failures_total",
                                      "regenerations that failed");
  plans_patched_ = scope.GetCounter(
      "nagano_trigger_plans_patched_total",
      "composition plans refreshed by fragment swap (no page re-render)");
  rerendered_bytes_ = scope.GetCounter(
      "nagano_dup_rerendered_bytes_total",
      "bytes produced by update-in-place re-renders");
  changes_coalesced_ =
      scope.GetCounter("nagano_trigger_changes_coalesced_total",
                       "changes that rode along in a multi-change batch");
  renders_attempted_ = scope.GetCounter(
      "nagano_trigger_renders_attempted_total", "regenerations tried");
  notifications_dropped_ =
      scope.GetCounter("nagano_trigger_notifications_dropped_total",
                       "commit wake-ups lost to injected faults");
  duplicates_injected_ =
      scope.GetCounter("nagano_trigger_duplicates_injected_total",
                       "injected extra commit wake-ups");
  update_latency_ms_ =
      scope.GetHistogram("nagano_trigger_update_latency_ms",
                         "commit to cache-consistent latency per batch (ms)");
  fanout_ = scope.GetHistogram("nagano_trigger_fanout",
                               "affected objects per batch");
  fanout_bytes_ = scope.GetHistogram("nagano_dup_fanout_bytes",
                                     "bytes re-rendered per update batch");
  batch_apply_ms_ = scope.GetHistogram(
      "nagano_trigger_batch_apply_ms",
      "regenerate + distribute wall time per batch (ms)");
  propagation_latency_ms_ = scope.GetHistogram(
      "nagano_dup_propagation_latency_ms",
      "commit to cache-visible latency per affected object (ms)");
}

TriggerMonitor::~TriggerMonitor() { Stop(); }

void TriggerMonitor::Start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cursor_.empty()) {
      // First start: changes already in the log predate this monitor (e.g.
      // the site build); the tail starts after them.
      cursor_ = db_->AppliedCursor();
    }
    stop_at_.reset();
    tailing_ = true;
  }
  db_->SetCommitWakeup([this] { OnCommitWakeup(); });
  tail_ = std::thread([this] { TailLoop(); });
}

void TriggerMonitor::Stop() {
  if (!running_.exchange(false)) return;
  // Drain-then-join: the tail applies everything committed before this
  // point, then exits.
  db_->SetCommitWakeup(nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_at_ = db_->AppliedCursor();
  }
  wake_cv_.notify_one();
  tail_.join();
}

void TriggerMonitor::OnCommitWakeup() {
  const auto fate = fault::Decide(faults_, "trigger", instance_, "notify");
  if (!fate.status.ok()) {
    // Lost wake-up. The change is durable in the log, and the tail reads
    // it on its next wake-up or poll.
    notifications_dropped_->Increment();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    woken_ = true;
  }
  for (uint32_t i = 0; i <= fate.duplicates; ++i) wake_cv_.notify_one();
  if (fate.duplicates > 0) duplicates_injected_->Increment(fate.duplicates);
}

void TriggerMonitor::Quiesce() {
  const db::ChangeCursor target = db_->AppliedCursor();
  std::unique_lock<std::mutex> lock(mutex_);
  const auto done = [&] { return !tailing_ || Covers(cursor_, target); };
  if (done()) return;
  // Ring for the tail ourselves: the commit's own wake-up may have been
  // lost.
  woken_ = true;
  wake_cv_.notify_one();
  progress_cv_.wait(lock, done);
}

uint64_t TriggerMonitor::backlog() const {
  const db::ChangeCursor applied = db_->AppliedCursor();
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t pending = 0;
  for (size_t k = 0; k < applied.positions.size(); ++k) {
    pending += applied.positions[k] - std::min(applied.positions[k],
                                               cursor_.at(k));
  }
  return pending;
}

void TriggerMonitor::TailLoop() {
  db::ChangeCursor cursor = cursor_;  // published to cursor_ per batch
  bool caught_up = false;
  for (;;) {
    std::optional<db::ChangeCursor> stop_at;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (caught_up) {
        wake_cv_.wait_for(lock, kTailPollInterval,
                          [&] { return woken_ || stop_at_.has_value(); });
      }
      woken_ = false;
      stop_at = stop_at_;
      if (stop_at && Covers(cursor, *stop_at)) break;
    }
    auto batch_or = db_->ReadChanges(cursor, options_.batch_max);
    if (!batch_or.ok()) {
      // Transient: the cursor stays put and the next wake-up retries from
      // it. Stop() does not wait for a feed that cannot be read.
      if (stop_at) break;
      caught_up = true;
      continue;
    }
    db::ChangeBatch& batch = batch_or.value();
    if (!batch.records.empty()) {
      ProcessBatch(batch.records);
      batches_->Increment();
      changes_processed_->Increment(batch.records.size());
    }
    cursor = std::move(batch.next);
    if (!batch.gap_shards.empty()) SkipGap(batch.gap_shards, cursor);
    caught_up = batch.records.size() < options_.batch_max &&
                batch.gap_shards.empty();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cursor_ = cursor;
    }
    progress_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tailing_ = false;
  }
  progress_cv_.notify_all();
}

void TriggerMonitor::SkipGap(const std::vector<uint32_t>& gap_shards,
                             db::ChangeCursor& cursor) {
  const db::ChangeCursor retained = db_->RetainedCursor();
  for (const uint32_t shard : gap_shards) {
    if (cursor.positions.size() <= shard) {
      cursor.positions.resize(shard + 1, 0);
    }
    cursor.positions[shard] =
        std::max(cursor.positions[shard], retained.at(shard));
  }
  if (options_.policy == CachePolicy::kNone) return;
  objects_invalidated_->Increment(cache_->InvalidatePrefix(""));
}

void TriggerMonitor::ProcessBatch(const std::vector<db::ChangeRecord>& batch) {
  if (options_.policy == CachePolicy::kNone) return;
  if (options_.policy == CachePolicy::kConservative1996) {
    ApplyConservative(batch);
    return;
  }

  // Map changes to underlying-data vertices. Unknown vertices (nothing
  // cached ever depended on them) simply have no out-edges.
  std::vector<odg::NodeId> changed;
  for (const auto& change : batch) {
    for (const std::string& node : mapper_(change)) {
      const odg::NodeId id =
          graph_->EnsureNode(node, odg::NodeKind::kUnderlyingData);
      changed.push_back(id);
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  odg::DupOptions dup_options;
  dup_options.obsolescence_threshold = options_.obsolescence_threshold;
  dup_options.enable_simple_fast_path = options_.enable_simple_fast_path;
  const odg::DupResult dup =
      odg::DupEngine::ComputeAffected(*graph_, changed, dup_options);

  dup_runs_->Increment();
  if (batch.size() > 1) changes_coalesced_->Increment(batch.size() - 1);
  fanout_->Observe(static_cast<double>(dup.affected.size()));

  // Oldest commit in the batch: the floor every per-object propagation
  // observation is stamped against.
  TimeNs oldest = batch.front().committed_at;
  for (const auto& c : batch) oldest = std::min(oldest, c.committed_at);

  const TimeNs apply_start = clock_->Now();
  if (options_.policy == CachePolicy::kDupUpdateInPlace) {
    ApplyUpdateInPlace(dup, oldest);
  } else {
    ApplyInvalidate(dup, oldest);
  }
  const double apply_ms = ToMillis(clock_->Now() - apply_start);
  batch_apply_ms_->Observe(std::max(0.0, apply_ms));

  // Batch latency: oldest commit in the batch -> now.
  const double latency_ms = ToMillis(clock_->Now() - oldest);
  update_latency_ms_->Observe(std::max(0.0, latency_ms));
}

void TriggerMonitor::ApplyUpdateInPlace(const odg::DupResult& dup,
                                        TimeNs oldest_commit) {
  // dup.affected is in dependency order: a fragment precedes every page
  // embedding it, so a page always splices already-refreshed fragments.
  uint64_t updated = 0, failures = 0, skipped = 0, attempted = 0;
  uint64_t patched = 0, bytes_rerendered = 0;
  // The object's fresh body (or patched plan) is now what readers see:
  // stamp commit -> cache-visible.
  const auto visible = [&] {
    ++updated;
    propagation_latency_ms_->Observe(
        std::max(0.0, ToMillis(clock_->Now() - oldest_commit)));
  };

  // dup.obsolete is NodeId-sorted, so closure membership is a binary search.
  auto in_closure = [&](odg::NodeId id) {
    return std::binary_search(dup.obsolete.begin(), dup.obsolete.end(), id);
  };
  // A cached composition plan can absorb this update by fragment swap iff
  // every obsolete input feeding the page is a fragment the plan embeds.
  // On success `chunks` holds the plan chunks embedding closure fragments —
  // the only pins the patch replaces. Any obsolete direct data dependence
  // (or a closure fragment the plan does not carry — the layout changed
  // since the plan was stored) forces a full re-render.
  auto patch_chunks = [&](odg::NodeId id, const cache::CachedObject& cached,
                          std::vector<size_t>& chunks) {
    return graph_->WithSnapshot([&](const auto&, const auto& in,
                                    const auto& kinds) {
      for (const odg::Edge& e : in[id]) {
        if (!in_closure(e.to)) continue;
        if (kinds[e.to] != odg::NodeKind::kBoth) return false;
        const std::string_view frag = graph_->name(e.to);
        const size_t found = chunks.size();
        for (size_t i = 0; i < cached.plan.size(); ++i) {
          const cache::PlanChunk& chunk = cached.plan[i];
          if (chunk.is_fragment() && *chunk.fragment == frag) {
            chunks.push_back(i);
          }
        }
        if (chunks.size() == found) return false;
      }
      return true;
    });
  };

  for (const odg::AffectedObject& obj : dup.affected) {
    const std::string_view name = graph_->name(obj.id);
    // Only refresh objects that are actually cached; uncached pages will
    // be generated (with fresh data) on their next request.
    const auto cached = cache_->Peek(name);
    if (cached == nullptr) {
      ++skipped;
      continue;
    }

    // Fragment-first fast path: dependency order already refreshed every
    // closure fragment this page embeds, so the plan re-pins just those and
    // recomputes its entity headers — no generator run, ~zero fanout bytes.
    // A closure fragment that was skipped (not cached) fails the patch, so
    // the page is re-rendered rather than left pinning stale bytes.
    if (cached->is_plan()) {
      std::vector<size_t> chunks;
      if (patch_chunks(obj.id, *cached, chunks) &&
          cache_->PatchPlan(name, cached, chunks) != 0) {
        ++patched;
        visible();
        continue;
      }
    }

    ++attempted;
    auto body = renderer_->RenderAndCache(name);
    if (!body.ok()) {
      ++failures;
      continue;
    }
    bytes_rerendered += body.value()->size();
    visible();
  }
  objects_updated_->Increment(updated);
  render_failures_->Increment(failures);
  objects_skipped_->Increment(skipped);
  renders_attempted_->Increment(attempted);
  plans_patched_->Increment(patched);
  rerendered_bytes_->Increment(bytes_rerendered);
  fanout_bytes_->Observe(static_cast<double>(bytes_rerendered));
}

void TriggerMonitor::ApplyInvalidate(const odg::DupResult& dup,
                                     TimeNs oldest_commit) {
  uint64_t invalidated = 0;
  for (const auto& obj : dup.affected) {
    if (cache_->Invalidate(graph_->name(obj.id))) {
      ++invalidated;
      // Staleness window closed by removal rather than refresh.
      propagation_latency_ms_->Observe(
          std::max(0.0, ToMillis(clock_->Now() - oldest_commit)));
    }
  }
  objects_invalidated_->Increment(invalidated);
}

void TriggerMonitor::ApplyConservative(
    const std::vector<db::ChangeRecord>& batch) {
  uint64_t invalidated = 0;
  std::vector<std::string> prefixes;
  for (const auto& change : batch) {
    if (options_.conservative_prefixes.empty()) {
      prefixes.push_back("");  // invalidate everything
      break;
    }
    auto it = options_.conservative_prefixes.find(change.table);
    if (it == options_.conservative_prefixes.end()) continue;
    for (const auto& p : it->second) prefixes.push_back(p);
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  for (const auto& p : prefixes) invalidated += cache_->InvalidatePrefix(p);
  objects_invalidated_->Increment(invalidated);
  fanout_->Observe(static_cast<double>(invalidated));
}

TriggerStats TriggerMonitor::stats() const {
  // Assembled snapshot view over the registry cells — same field values the
  // pre-registry struct carried, so benches and tests read it unchanged.
  TriggerStats s;
  s.changes_processed = changes_processed_->value();
  s.batches = batches_->value();
  s.dup_runs = dup_runs_->value();
  s.objects_updated = objects_updated_->value();
  s.objects_invalidated = objects_invalidated_->value();
  s.objects_skipped = objects_skipped_->value();
  s.render_failures = render_failures_->value();
  s.plans_patched = plans_patched_->value();
  s.rerendered_bytes = rerendered_bytes_->value();
  s.changes_coalesced = changes_coalesced_->value();
  s.renders_attempted = renders_attempted_->value();
  s.notifications_dropped = notifications_dropped_->value();
  s.duplicates_injected = duplicates_injected_->value();
  s.update_latency_ms = update_latency_ms_->snapshot();
  s.fanout = fanout_->snapshot();
  s.fanout_bytes = fanout_bytes_->snapshot();
  s.batch_apply_ms = batch_apply_ms_->snapshot();
  s.propagation_latency_ms = propagation_latency_ms_->snapshot();
  return s;
}

}  // namespace nagano::trigger
