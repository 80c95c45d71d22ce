// End-to-end suites over the assembled ServingSite: prefetch, DUP
// consistency under a realistic result feed, the hit-rate comparison that
// is the paper's headline claim, and the full stack over real HTTP.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/serving_site.h"
#include "http/client.h"
#include "server/serving.h"
#include "workload/feed.h"
#include "workload/sampler.h"

namespace nagano {
namespace {

using core::ServingSite;
using core::SiteOptions;

SiteOptions SmallSite(trigger::CachePolicy policy) {
  SiteOptions options;
  options.olympic.days = 4;
  options.olympic.num_sports = 3;
  options.olympic.events_per_sport = 4;
  options.olympic.athletes_per_event = 6;
  options.olympic.num_countries = 8;
  options.olympic.initial_news_articles = 5;
  options.trigger.policy = policy;
  if (policy == trigger::CachePolicy::kConservative1996) {
    options.trigger.conservative_prefixes =
        trigger::OlympicConservativePrefixes();
  }
  return options;
}

TEST(ServingSiteTest, CreateAndPrefetch) {
  auto site = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site.ok());
  const auto count = site.value()->PrefetchAll();
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count.value(), 50u);
  EXPECT_EQ(site.value()->cache().size(), count.value());
  // Prefetch built the full ODG.
  EXPECT_GT(site.value()->graph().edge_count(), 100u);
}

TEST(ServingSiteTest, ServeClassesBeforeAndAfterPrefetch) {
  auto site_or = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();

  EXPECT_EQ(site.Serve("/day/1").cls, server::ServeClass::kCacheMissGenerated);
  EXPECT_EQ(site.Serve("/day/1").cls, server::ServeClass::kCacheHit);
  ASSERT_TRUE(site.PrefetchAll().ok());
  EXPECT_EQ(site.Serve("/event/3").cls, server::ServeClass::kCacheHit);
  EXPECT_EQ(site.Serve("/nope").cls, server::ServeClass::kNotFound);
}

TEST(ServingSiteTest, UpdateLatencyWellUnderPaperBound) {
  auto site_or = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());
  site.StartTrigger();

  const auto latency = site.MeasureUpdateLatencyMs(1, 1, 1, 97.5);
  ASSERT_TRUE(latency.ok()) << latency.status().ToString();
  EXPECT_GT(latency.value(), 0.0);
  EXPECT_LT(latency.value(), 60'000.0);  // paper: within sixty seconds
  site.StopTrigger();
}

TEST(ServingSiteTest, LatencyProbeRequiresPrefetch) {
  auto site_or = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  site.StartTrigger();
  EXPECT_EQ(site.MeasureUpdateLatencyMs(1, 1, 1, 97.5).status().code(),
            ErrorCode::kFailedPrecondition);
  site.StopTrigger();
}

// Runs a compressed games day against the given policy and returns the
// dynamic-page hit rate under a Zipf request mix interleaved with the feed.
double RunDayAndMeasureHitRate(trigger::CachePolicy policy, uint64_t seed) {
  auto site_or = ServingSite::Create(SmallSite(policy));
  EXPECT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  EXPECT_TRUE(site.PrefetchAll().ok());
  site.StartTrigger();

  workload::PageSampler sampler(site.olympic_config(), site.db());
  sampler.SetCurrentDay(1);
  workload::ResultFeed feed(&site.db(), workload::FeedOptions{}, seed);
  const auto schedule = feed.BuildDaySchedule(1);

  Rng rng(seed);
  size_t cursor = 0;
  const int requests_per_update = 40;
  while (cursor < schedule.size()) {
    EXPECT_TRUE(feed.Apply(schedule[cursor++]).ok());
    // In the 1998 system updates are applied on the trigger monitor's
    // threads while serving continues; quiesce per update to make the
    // measurement deterministic.
    site.Quiesce();
    for (int r = 0; r < requests_per_update; ++r) {
      site.Serve(sampler.Sample(rng));
    }
  }
  site.StopTrigger();
  return site.page_server().stats().CacheHitRate();
}

TEST(HitRateComparisonTest, DupUpdateInPlaceNearPerfect) {
  // §5: "As a result of DUP and prefetching, we were able to achieve cache
  // hit rates close to 100%."
  const double hit_rate =
      RunDayAndMeasureHitRate(trigger::CachePolicy::kDupUpdateInPlace, 77);
  EXPECT_GT(hit_rate, 0.99);
}

TEST(HitRateComparisonTest, Conservative1996MuchWorse) {
  // §2: the 1996 site achieved ~80%; bulk invalidation after every scoring
  // update forces constant regeneration.
  const double rate96 =
      RunDayAndMeasureHitRate(trigger::CachePolicy::kConservative1996, 77);
  const double rate98 =
      RunDayAndMeasureHitRate(trigger::CachePolicy::kDupUpdateInPlace, 77);
  EXPECT_LT(rate96, 0.92);
  EXPECT_GT(rate98 - rate96, 0.05);
}

TEST(HitRateComparisonTest, DupInvalidateBetween) {
  const double inval =
      RunDayAndMeasureHitRate(trigger::CachePolicy::kDupInvalidate, 77);
  const double in_place =
      RunDayAndMeasureHitRate(trigger::CachePolicy::kDupUpdateInPlace, 77);
  const double rate96 =
      RunDayAndMeasureHitRate(trigger::CachePolicy::kConservative1996, 77);
  EXPECT_GE(in_place, inval);
  EXPECT_GE(inval, rate96);
}

TEST(ServingSiteTest, PrefetchedObjectsStayResident) {
  // "All dynamic pages could be cached in memory without overflow ...
  // the system never had to apply a cache replacement algorithm."
  auto site_or = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  const auto prefetched = site.PrefetchAll();
  ASSERT_TRUE(prefetched.ok());
  site.StartTrigger();
  workload::ResultFeed feed(&site.db(), workload::FeedOptions{}, 3);
  for (const auto& update : feed.BuildDaySchedule(1)) {
    ASSERT_TRUE(feed.Apply(update).ok());
  }
  site.Quiesce();
  site.StopTrigger();
  EXPECT_EQ(site.cache().size(), prefetched.value());
}

// Full stack: ServingSite behind the epoll HTTP server, driven by a real
// HTTP client, with the trigger monitor refreshing pages between fetches.
TEST(FullStackTest, LiveHttpUpdatesVisible) {
  auto site_or = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());
  site.StartTrigger();

  server::HttpFrontEnd front(&site.page_server(), {});
  ASSERT_TRUE(front.Start().ok());

  http::HttpClient client("127.0.0.1", front.port());
  auto before = client.Get("/event/1");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().status, 200);
  EXPECT_EQ(before.value().headers.at("X-Cache"), "HIT");
  EXPECT_EQ(before.value().body.find("77.70"), std::string::npos);

  ASSERT_TRUE(site.RecordResult(1, 1, 1, 77.70).ok());
  site.Quiesce();

  auto after = client.Get("/event/1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().headers.at("X-Cache"), "HIT");  // never missed
  EXPECT_NE(after.value().body.find("77.70"), std::string::npos);

  front.Stop();
  site.StopTrigger();
}

TEST(FullStackTest, HttpServesEveryPage) {
  auto site_or = ServingSite::Create(SmallSite(trigger::CachePolicy::kDupUpdateInPlace));
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());

  server::HttpFrontEnd front(&site.page_server(), {});
  ASSERT_TRUE(front.Start().ok());
  http::HttpClient client("127.0.0.1", front.port());

  size_t fetched = 0;
  for (const auto& page : pagegen::OlympicSite::AllPageNames(
           site.olympic_config(), site.db())) {
    auto resp = client.Get(page);
    ASSERT_TRUE(resp.ok()) << page;
    EXPECT_EQ(resp.value().status, 200) << page;
    EXPECT_FALSE(resp.value().body.empty()) << page;
    ++fetched;
  }
  EXPECT_EQ(front.http_stats().requests_served, fetched);
  front.Stop();
}

}  // namespace
}  // namespace nagano
