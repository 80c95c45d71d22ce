// Parameterized quiescence suite for the parallel DUP re-render pipeline.
//
// DESIGN §6: "After trigger-monitor quiescence, no cache read returns a
// version older than the last committed DB change affecting it." This must
// hold at any worker count, and the *contents* the pipeline converges to
// must not depend on the worker count at all: the same Olympic feed day
// replayed at worker_threads = 1, 2 and 8 has to leave byte-identical
// caches. Labelled `stress` so the CI matrix also runs it under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/serving_site.h"
#include "workload/feed.h"

namespace nagano::core {
namespace {

SiteOptions SmallSite(size_t worker_threads) {
  SiteOptions options;
  options.olympic.days = 4;
  options.olympic.num_sports = 3;
  options.olympic.events_per_sport = 4;
  options.olympic.athletes_per_event = 8;
  options.olympic.num_countries = 8;
  options.olympic.initial_news_articles = 5;
  options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
  options.trigger.worker_threads = worker_threads;
  return options;
}

uint64_t Fnv1a(const std::string& data, uint64_t hash) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct FeedDayOutcome {
  uint64_t content_digest = 0;  // over every (key, body) pair, key-sorted
  size_t entries = 0;
  uint64_t objects_updated = 0;
};

// Replays the deterministic day-1 feed (seed 42) against a fresh site and
// verifies the §6 invariant at quiescence. With `quiesce_each` the site is
// quiesced after every update, so the trigger never coalesces two updates
// into one batch. Returns nullopt after recording a test failure.
std::optional<FeedDayOutcome> RunFeedDay(size_t worker_threads,
                                         bool quiesce_each = false) {
  auto site_or = ServingSite::Create(SmallSite(worker_threads));
  if (!site_or.ok()) {
    ADD_FAILURE() << site_or.status().ToString();
    return std::nullopt;
  }
  auto& site = *site_or.value();
  auto prefetched = site.PrefetchAll();
  if (!prefetched.ok()) {
    ADD_FAILURE() << prefetched.status().ToString();
    return std::nullopt;
  }
  site.StartTrigger();

  workload::ResultFeed feed(&site.db(), workload::FeedOptions{}, /*seed=*/42);
  for (const auto& update : feed.BuildDaySchedule(1)) {
    if (!feed.Apply(update).ok()) {
      ADD_FAILURE() << "feed update failed";
      return std::nullopt;
    }
    if (quiesce_each) site.Quiesce();
  }
  const uint64_t committed = site.db().LastSeqno();
  site.Quiesce();

  // The freshness bound covers everything committed before Quiesce().
  EXPECT_GE(site.last_quiesced_seqno(), committed);

  // §6 invariant, strong form: every cached object equals a fresh render.
  const auto verified = site.VerifyCacheConsistency();
  if (!verified.ok()) {
    ADD_FAILURE() << verified.status().ToString();
    return std::nullopt;
  }
  EXPECT_GT(verified.value(), 0u);

  site.StopTrigger();

  FeedDayOutcome outcome;
  outcome.objects_updated = site.trigger_monitor().stats().objects_updated;
  uint64_t digest = 14695981039346656037ull;
  for (const auto& [key, object] : site.cache().Snapshot()) {
    digest = Fnv1a(key, digest);
    digest = Fnv1a(object->Materialize(), digest);
    ++outcome.entries;
  }
  outcome.content_digest = digest;
  return outcome;
}

class QuiesceWorkerTest : public ::testing::TestWithParam<size_t> {};

TEST_P(QuiesceWorkerTest, FreshnessInvariantHoldsAfterFeedDay) {
  const auto outcome = RunFeedDay(GetParam());
  ASSERT_TRUE(outcome.has_value());
  EXPECT_GT(outcome->entries, 0u);
  EXPECT_GT(outcome->objects_updated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, QuiesceWorkerTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{8}),
                         [](const auto& param_info) {
                           return "workers" + std::to_string(param_info.param);
                         });

TEST(QuiesceDeterminismTest, FinalCacheContentsByteIdenticalAcrossWorkerCounts) {
  const auto one = RunFeedDay(1);
  const auto two = RunFeedDay(2);
  const auto eight = RunFeedDay(8);
  ASSERT_TRUE(one && two && eight);
  EXPECT_EQ(one->entries, two->entries);
  EXPECT_EQ(one->entries, eight->entries);
  EXPECT_EQ(one->content_digest, two->content_digest);
  EXPECT_EQ(one->content_digest, eight->content_digest);
}

// Without per-update quiescence the trigger's tail may read several whole
// updates at once and render each affected object once for all of them, so
// objects_updated depends on thread timing. Quiesced after every update it
// is a function of the feed alone: equal at every worker count.
TEST(QuiesceDeterminismTest, RenderCountEqualAcrossWorkerCountsPerUpdate) {
  const auto one = RunFeedDay(1, /*quiesce_each=*/true);
  const auto two = RunFeedDay(2, /*quiesce_each=*/true);
  const auto eight = RunFeedDay(8, /*quiesce_each=*/true);
  ASSERT_TRUE(one && two && eight);
  EXPECT_GT(one->objects_updated, 0u);
  EXPECT_EQ(one->objects_updated, two->objects_updated);
  EXPECT_EQ(one->objects_updated, eight->objects_updated);
  EXPECT_EQ(one->content_digest, two->content_digest);
  EXPECT_EQ(one->content_digest, eight->content_digest);
}

}  // namespace
}  // namespace nagano::core
