#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <map>
#include <string>

#include "cache/object_cache.h"
#include "core/serving_site.h"
#include "db/database.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"
#include "trigger/trigger_monitor.h"

namespace nagano::trigger {
namespace {

using pagegen::OlympicConfig;
using pagegen::OlympicSite;

// Small but complete Olympic pipeline under a configurable policy.
class TriggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.days = 3;
    config_.num_sports = 2;
    config_.events_per_sport = 3;
    config_.athletes_per_event = 5;
    config_.num_countries = 6;
    config_.initial_news_articles = 3;
    ASSERT_TRUE(OlympicSite::Build(config_, &db_).ok());
    OlympicSite::RegisterGenerators(config_, &db_, &renderer_);
  }

  void Prefetch() {
    for (const auto& f : OlympicSite::AllFragmentNames(config_, db_)) {
      ASSERT_TRUE(renderer_.RenderAndCache(f).ok()) << f;
    }
    for (const auto& p : OlympicSite::AllPageNames(config_, db_)) {
      ASSERT_TRUE(renderer_.RenderAndCache(p).ok()) << p;
    }
  }

  std::unique_ptr<TriggerMonitor> MakeMonitor(TriggerOptions options) {
    if (options.policy == CachePolicy::kConservative1996 &&
        options.conservative_prefixes.empty()) {
      options.conservative_prefixes = OlympicConservativePrefixes();
    }
    return std::make_unique<TriggerMonitor>(
        &db_, &graph_, &cache_, &renderer_,
        [this](const db::ChangeRecord& change) {
          return OlympicSite::MapChangeToDataNodes(change, db_);
        },
        options);
  }

  OlympicConfig config_;
  db::Database db_{db::DatabaseOptions{}};
  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  pagegen::PageRenderer renderer_{&graph_, &cache_};
};

TEST_F(TriggerTest, UpdateInPlaceKeepsCacheWarmAndFresh) {
  Prefetch();
  const size_t cached_before = cache_.size();

  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  monitor->Start();

  const auto before = cache_.Peek("/event/1");
  ASSERT_NE(before, nullptr);

  for (int rank = 1; rank <= 3; ++rank) {
    ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, rank, rank, 99.0 - rank).ok());
  }
  ASSERT_TRUE(OlympicSite::CompleteEvent(&db_, 1).ok());
  monitor->Quiesce();

  // Nothing was evicted; the event page was refreshed in place.
  EXPECT_EQ(cache_.size(), cached_before);
  const auto after = cache_.Peek("/event/1");
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->version, before->version);
  EXPECT_NE(after->body, before->body);
  EXPECT_EQ(cache_.stats().invalidations, 0u);

  const auto stats = monitor->stats();
  EXPECT_GT(stats.objects_updated, 0u);
  EXPECT_EQ(stats.objects_invalidated, 0u);
  EXPECT_GT(stats.dup_runs, 0u);
  monitor->Stop();
}

TEST_F(TriggerTest, CachedBodiesMatchFreshRenderAfterQuiesce) {
  // The consistency barrier: after Quiesce, every cached page equals what a
  // fresh render would produce.
  Prefetch();
  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  monitor->Start();

  for (int rank = 1; rank <= 4; ++rank) {
    ASSERT_TRUE(OlympicSite::RecordResult(&db_, 2, rank, rank + 5, 90.0 - rank).ok());
  }
  ASSERT_TRUE(OlympicSite::CompleteEvent(&db_, 2).ok());
  ASSERT_TRUE(OlympicSite::PublishNews(&db_, 500, 1, "Flash", "Body", 1).ok());
  monitor->Quiesce();
  monitor->Stop();

  size_t checked = 0;
  for (const auto& page : OlympicSite::AllPageNames(config_, db_)) {
    const auto cached = cache_.Peek(page);
    // Pages created after prefetch (the new article 500 in any language)
    // are legitimately uncached until first request; everything cached
    // must be fresh.
    if (cached == nullptr) {
      EXPECT_TRUE(page.ends_with("/news/500")) << page;
      continue;
    }
    ++checked;
    const auto fresh = renderer_.RenderOnly(page);
    ASSERT_TRUE(fresh.ok()) << page;
    EXPECT_EQ(cached->Materialize(), fresh.value()) << page << " is stale";
  }
  EXPECT_GT(checked, 30u);
}

TEST_F(TriggerTest, InvalidatePolicyDropsExactlyAffected) {
  Prefetch();
  const size_t cached_before = cache_.size();

  TriggerOptions options;
  options.policy = CachePolicy::kDupInvalidate;
  auto monitor = MakeMonitor(options);
  monitor->Start();

  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 99.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  // The event page is gone; an unrelated event's page is untouched.
  EXPECT_FALSE(cache_.Contains("/event/1"));
  EXPECT_TRUE(cache_.Contains("/event/5"));
  EXPECT_LT(cache_.size(), cached_before);
  EXPECT_GT(monitor->stats().objects_invalidated, 0u);
  EXPECT_EQ(monitor->stats().objects_updated, 0u);
}

TEST_F(TriggerTest, Conservative1996BlowsAwayFamilies) {
  Prefetch();
  TriggerOptions options;
  options.policy = CachePolicy::kConservative1996;
  auto monitor = MakeMonitor(options);
  monitor->Start();

  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 99.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  // Far more than the precise affected set is gone — including pages of
  // unrelated events and sports.
  EXPECT_FALSE(cache_.Contains("/event/1"));
  EXPECT_FALSE(cache_.Contains("/event/5"));
  EXPECT_FALSE(cache_.Contains("/day/1"));
  EXPECT_FALSE(cache_.Contains("/medals"));
  // News survives a results change under the default table mapping.
  EXPECT_TRUE(cache_.Contains("/news"));
}

TEST_F(TriggerTest, NonePolicyLeavesCacheStale) {
  Prefetch();
  TriggerOptions options;
  options.policy = CachePolicy::kNone;
  auto monitor = MakeMonitor(options);
  monitor->Start();

  const auto before = cache_.Peek("/event/1");
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 99.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  EXPECT_EQ(cache_.Peek("/event/1")->version, before->version);
}

TEST_F(TriggerTest, UncachedPagesNotRegenerated) {
  // Update-in-place refreshes only what is cached; cold pages regenerate
  // on demand with fresh data.
  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);

  // Render once to establish ODG edges, then empty the cache.
  ASSERT_TRUE(renderer_.RenderAndCache("/event/1").ok());
  cache_.InvalidatePrefix("");

  monitor->Start();
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 99.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  EXPECT_FALSE(cache_.Contains("/event/1"));
  EXPECT_EQ(monitor->stats().objects_updated, 0u);
  EXPECT_GT(monitor->stats().objects_skipped, 0u);
}

TEST_F(TriggerTest, InvalidatedPageSkippedNotStored) {
  // The "is it cached?" check: an affected page that was dropped from the
  // cache counts as skipped and is never stored back by the trigger, while
  // the cached pages around it are still refreshed.
  Prefetch();
  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  ASSERT_TRUE(cache_.Invalidate("/event/1"));

  monitor->Start();
  ASSERT_EQ(monitor->stats().objects_skipped, 0u);
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 99.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  const auto stats = monitor->stats();
  EXPECT_GE(stats.objects_skipped, 1u);
  EXPECT_GT(stats.objects_updated, 0u);
  EXPECT_EQ(cache_.Peek("/event/1"), nullptr);
}

TEST_F(TriggerTest, EventCompletionsLeaveEveryPageFresh) {
  Prefetch();
  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  monitor->Start();

  for (int event = 1; event <= 4; ++event) {
    for (int rank = 1; rank <= 3; ++rank) {
      ASSERT_TRUE(OlympicSite::RecordResult(&db_, event, rank, rank + event,
                                            95.0 - rank)
                      .ok());
    }
    ASSERT_TRUE(OlympicSite::CompleteEvent(&db_, event).ok());
  }
  monitor->Quiesce();
  monitor->Stop();

  for (const auto& page : OlympicSite::AllPageNames(config_, db_)) {
    const auto cached = cache_.Peek(page);
    ASSERT_NE(cached, nullptr) << page;
    const auto fresh = renderer_.RenderOnly(page);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(cached->Materialize(), fresh.value()) << page;
  }
}

TEST(TriggerOptionsTest, RejectsMoreThanOneWorker) {
  // The tail thread renders every update itself; 1 is the only value.
  TriggerOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.worker_threads = 2;
  EXPECT_EQ(options.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST_F(TriggerTest, StopIsIdempotent) {
  TriggerOptions options;
  auto monitor = MakeMonitor(options);
  monitor->Start();
  monitor->Stop();
  monitor->Stop();  // no crash
}

TEST_F(TriggerTest, StatsTrackLatencyAndFanout) {
  Prefetch();
  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  monitor->Start();
  for (int rank = 1; rank <= 3; ++rank) {
    ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, rank, rank, 99.0 - rank).ok());
  }
  monitor->Quiesce();
  monitor->Stop();
  const auto stats = monitor->stats();
  EXPECT_GT(stats.update_latency_ms.count(), 0u);
  EXPECT_GT(stats.fanout.count(), 0u);
  EXPECT_GT(stats.fanout.max(), 0.0);
}

// --- plan patches ------------------------------------------------------------

// The fragment chunks of `page`'s cached plan, keyed by fragment name.
std::map<std::string, std::shared_ptr<const cache::CachedObject>> PinsOf(
    const cache::CachedObject& page) {
  std::map<std::string, std::shared_ptr<const cache::CachedObject>> pins;
  for (const cache::PlanChunk& chunk : page.plan) {
    if (chunk.is_fragment()) pins[*chunk.fragment] = chunk.source;
  }
  return pins;
}

int64_t DayOfEvent(const db::Database& db, int64_t event_id) {
  int64_t day = 0;
  db.Read("events", db::RowFilter::Key(db::Value(event_id)),
          [&](const db::Row& r) { day = std::get<int64_t>(r[3]); });
  return day;
}

TEST_F(TriggerTest, PatchRepinsExactlyTheClosureFragments) {
  // A result for event 1 changes frag:event:1 only. The day home embedding
  // it is patched: that chunk pins the fresh fragment, every other pin and
  // every static byte run is the very object the old version held.
  Prefetch();
  const std::string day_home =
      OlympicSite::DayHomePage(static_cast<int>(DayOfEvent(db_, 1)));
  const auto before = cache_.Peek(day_home);
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(before->is_plan());
  const auto pins_before = PinsOf(*before);
  ASSERT_TRUE(pins_before.contains("frag:event:1"));
  ASSERT_GT(pins_before.size(), 1u);

  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  monitor->Start();
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 97.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  const auto after = cache_.Peek(day_home);
  ASSERT_NE(after, nullptr);
  ASSERT_TRUE(after->is_plan());
  EXPECT_GT(after->version, before->version);
  EXPECT_GT(monitor->stats().plans_patched, 0u);
  for (const auto& [fragment, pin] : PinsOf(*after)) {
    if (fragment == "frag:event:1") {
      EXPECT_NE(pin, pins_before.at(fragment));
      EXPECT_EQ(pin, cache_.Peek(fragment));
    } else {
      EXPECT_EQ(pin, pins_before.at(fragment)) << fragment << " was re-pinned";
    }
  }
  ASSERT_EQ(after->plan.size(), before->plan.size());
  for (size_t i = 0; i < after->plan.size(); ++i) {
    if (!after->plan[i].is_fragment()) {
      EXPECT_EQ(after->plan[i].text, before->plan[i].text) << "chunk " << i;
    }
  }
  const auto fresh = renderer_.RenderOnly(day_home);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(after->Materialize(), fresh.value());
}

TEST_F(TriggerTest, SkippedClosureFragmentForcesRerender) {
  // frag:event:1 is not cached when its result lands, so the trigger skips
  // it. The day home embedding it must then be re-rendered (which renders
  // and caches the fragment afresh), not patched around a stale pin.
  Prefetch();
  const std::string day_home =
      OlympicSite::DayHomePage(static_cast<int>(DayOfEvent(db_, 1)));
  ASSERT_TRUE(cache_.Invalidate("frag:event:1"));

  TriggerOptions options;
  options.policy = CachePolicy::kDupUpdateInPlace;
  auto monitor = MakeMonitor(options);
  monitor->Start();
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 97.0).ok());
  monitor->Quiesce();
  monitor->Stop();

  EXPECT_GT(monitor->stats().objects_skipped, 0u);
  EXPECT_GT(monitor->stats().renders_attempted, 0u);
  const auto after = cache_.Peek(day_home);
  ASSERT_NE(after, nullptr);
  const auto fragment = cache_.Peek("frag:event:1");
  ASSERT_NE(fragment, nullptr);
  EXPECT_EQ(PinsOf(*after).at("frag:event:1"), fragment);
  const auto fresh = renderer_.RenderOnly(day_home);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(after->Materialize(), fresh.value());
}

TEST(TriggerPatchTest, NewsUpdatePatchesEveryEmbeddingPage) {
  metrics::MetricRegistry registry;
  core::SiteOptions options;
  options.olympic.days = 3;
  options.olympic.num_sports = 2;
  options.olympic.events_per_sport = 3;
  options.olympic.athletes_per_event = 5;
  options.olympic.num_countries = 6;
  options.olympic.initial_news_articles = 3;
  options.metrics.registry = &registry;
  auto site_or = core::ServingSite::Create(std::move(options));
  ASSERT_TRUE(site_or.ok()) << site_or.status().ToString();
  core::ServingSite& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());
  site.StartTrigger();

  std::map<std::string, uint64_t> embedding;  // page -> version before
  for (const auto& [key, object] : site.cache().Snapshot()) {
    if (PinsOf(*object).contains("frag:news:latest")) {
      embedding[key] = object->version;
    }
  }
  ASSERT_GT(embedding.size(), 2u);
  const uint64_t patched_before = site.trigger_monitor().stats().plans_patched;

  ASSERT_TRUE(site.PublishNews(100, 2, "Late-breaking", "Story.", 1).ok());
  site.Quiesce();

  const auto latest = site.cache().Peek("frag:news:latest");
  ASSERT_NE(latest, nullptr);
  for (const auto& [page, version] : embedding) {
    const auto now = site.cache().Peek(page);
    ASSERT_NE(now, nullptr) << page;
    EXPECT_GT(now->version, version) << page;
    EXPECT_EQ(PinsOf(*now).at("frag:news:latest"), latest) << page;
  }
  EXPECT_GE(site.trigger_monitor().stats().plans_patched - patched_before,
            embedding.size());
  const auto verified = site.VerifyCacheConsistency();
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  site.StopTrigger();
}

// The gap rule: changes that retention truncated before the tail read them
// cannot be applied, so the monitor drops the whole cache rather than leave
// their pages stale.
TEST(TriggerGapTest, TruncatedChangesDropTheCache) {
  char tmpl[] = "/tmp/nagano_trigger_gap_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  {
    metrics::MetricRegistry registry;
    wal::WalOptions wal_options;
    wal_options.dir = dir;
    wal_options.sync_policy = wal::SyncPolicy::kGroupCommit;
    wal_options.metrics.registry = &registry;
    auto wal = wal::WriteAheadLog::Open(std::move(wal_options));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();

    core::SiteOptions options;
    options.olympic.num_sports = 1;
    options.olympic.events_per_sport = 2;
    options.olympic.languages = {"en"};
    options.metrics.registry = &registry;
    db::DatabaseOptions db_options;
    db_options.wal = wal.value().get();
    db_options.change_log_retention = 2;
    db_options.metrics.registry = &registry;
    auto database = std::make_unique<db::Database>(std::move(db_options));
    ASSERT_TRUE(OlympicSite::Build(options.olympic, database.get()).ok());
    auto site_or =
        core::ServingSite::CreateAround(std::move(options), std::move(database));
    ASSERT_TRUE(site_or.ok()) << site_or.status().ToString();
    core::ServingSite& site = *site_or.value();
    ASSERT_TRUE(site.PrefetchAll().ok());
    site.StartTrigger();
    site.Quiesce();
    site.StopTrigger();

    // Committed while the monitor is stopped, then truncated past the
    // monitor's cursor: the log keeps only the newest two records.
    for (int rank = 1; rank <= 4; ++rank) {
      ASSERT_TRUE(site.RecordResult(1, rank, rank, 90.0 - rank).ok());
    }
    ASSERT_TRUE(site.db().Checkpoint().ok());

    site.StartTrigger();  // resumes from its cursor, before the gap
    site.Quiesce();
    EXPECT_EQ(site.trigger_monitor().backlog(), 0u);
    EXPECT_GT(site.trigger_monitor().stats().objects_invalidated, 0u);
    auto verified = site.VerifyCacheConsistency();
    EXPECT_TRUE(verified.ok()) << verified.status().message();

    // Past the gap the tail applies changes as usual.
    ASSERT_TRUE(site.PrefetchAll().ok());
    ASSERT_TRUE(site.RecordResult(2, 1, 7, 95.0).ok());
    site.Quiesce();
    verified = site.VerifyCacheConsistency();
    ASSERT_TRUE(verified.ok()) << verified.status().message();
    EXPECT_GT(verified.value(), 0u);
    site.StopTrigger();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(TriggerPolicyTest, ConservativePrefixCoverage) {
  const auto prefixes = OlympicConservativePrefixes();
  EXPECT_TRUE(prefixes.contains("results"));
  EXPECT_TRUE(prefixes.contains("news"));
  EXPECT_FALSE(prefixes.at("results").empty());
}

}  // namespace
}  // namespace nagano::trigger
