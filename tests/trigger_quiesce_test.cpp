// Quiescence suite for the DUP update-in-place pipeline.
//
// DESIGN §6: "After trigger-monitor quiescence, no cache read returns a
// version older than the last committed DB change affecting it." Every
// replay below checks that, and the *contents* the pipeline converges to
// must not depend on thread timing: the same Olympic feed day replayed
// again has to leave a byte-identical cache. Labelled `stress` so the CI
// matrix also runs it under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/serving_site.h"
#include "workload/feed.h"

namespace nagano::core {
namespace {

SiteOptions SmallSite() {
  SiteOptions options;
  options.olympic.days = 4;
  options.olympic.num_sports = 3;
  options.olympic.events_per_sport = 4;
  options.olympic.athletes_per_event = 8;
  options.olympic.num_countries = 8;
  options.olympic.initial_news_articles = 5;
  options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
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
std::optional<FeedDayOutcome> RunFeedDay(bool quiesce_each) {
  auto site_or = ServingSite::Create(SmallSite());
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

constexpr int kRepeats = 3;

TEST(QuiesceDeterminismTest, RepeatedReplaysLeaveByteIdenticalCaches) {
  const auto first = RunFeedDay(/*quiesce_each=*/false);
  ASSERT_TRUE(first.has_value());
  EXPECT_GT(first->entries, 0u);
  EXPECT_GT(first->objects_updated, 0u);
  for (int repeat = 1; repeat < kRepeats; ++repeat) {
    const auto again = RunFeedDay(/*quiesce_each=*/false);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->entries, first->entries) << "repeat " << repeat;
    EXPECT_EQ(again->content_digest, first->content_digest)
        << "repeat " << repeat;
  }
}

// Without per-update quiescence the trigger's tail may read several whole
// updates at once and render each affected object once for all of them, so
// objects_updated depends on thread timing. Quiesced after every update it
// is a function of the feed alone: the day-1 feed re-renders or patches
// exactly 712 objects on every repeat, and the final cache is the one the
// coalesced replay leaves.
TEST(QuiesceDeterminismTest, PerUpdateQuiesceUpdatesSameObjectsEveryRepeat) {
  const auto coalesced = RunFeedDay(/*quiesce_each=*/false);
  ASSERT_TRUE(coalesced.has_value());
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const auto outcome = RunFeedDay(/*quiesce_each=*/true);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->objects_updated, 712u) << "repeat " << repeat;
    EXPECT_EQ(outcome->entries, coalesced->entries) << "repeat " << repeat;
    EXPECT_EQ(outcome->content_digest, coalesced->content_digest)
        << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace nagano::core
