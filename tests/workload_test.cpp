#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "cache/object_cache.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"
#include "workload/feed.h"
#include "workload/navigation.h"
#include "workload/profiles.h"
#include "workload/sampler.h"
#include "workload/scenarios.h"
#include "db_rows.h"

namespace nagano::workload {
namespace {

using pagegen::OlympicConfig;
using pagegen::OlympicSite;

// --- profiles -------------------------------------------------------------------

TEST(ProfilesTest, HitsByDayMatchPaperAggregates) {
  const auto& days = HitsByDayMillions();
  ASSERT_EQ(days.size(), 16u);
  // §5: 634.7M total, 56.8M peak on Day 7, every day above the 17M 1996 peak.
  EXPECT_NEAR(TotalHitsMillions(), 634.7, 0.01);
  EXPECT_EQ(std::max_element(days.begin(), days.end()) - days.begin(), 6);
  EXPECT_DOUBLE_EQ(days[6], 56.8);
  for (double d : days) EXPECT_GT(d, 17.0);
}

TEST(ProfilesTest, HourlyWeightsNormalized) {
  const auto& w = HourlyWeights();
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
  for (double x : w) EXPECT_GT(x, 0.0);
  // Diurnal shape: overnight trough far below the midday plateau.
  EXPECT_LT(w[3], w[12] / 4);
}

TEST(ProfilesTest, SampleHourFollowsWeights) {
  Rng rng(1);
  std::array<int, 24> counts{};
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(SampleHour(rng))];
  const auto& w = HourlyWeights();
  for (int h = 0; h < 24; ++h) {
    EXPECT_NEAR(counts[size_t(h)] / double(n), w[size_t(h)], 0.01) << "hour " << h;
  }
}

TEST(ProfilesTest, RegionSharesSumToOne) {
  const auto& regions = Regions();
  double total = 0;
  for (const auto& r : regions) total += r.share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Every region's home complex is a real complex.
  const auto& complexes = Complexes();
  for (const auto& r : regions) {
    EXPECT_NE(std::find(complexes.begin(), complexes.end(), r.home_complex),
              complexes.end())
        << r.name;
  }
}

TEST(ProfilesTest, SampleRegionFollowsShares) {
  Rng rng(2);
  const auto& regions = Regions();
  std::vector<int> counts(regions.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[SampleRegion(rng)];
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_NEAR(counts[i] / double(n), regions[i].share, 0.01) << regions[i].name;
  }
}

TEST(ProfilesTest, TransferBytesPlausible) {
  Rng rng(3);
  RunningStat regular, home;
  for (int i = 0; i < 20000; ++i) {
    regular.Add(static_cast<double>(SampleTransferBytes(rng, false)));
    home.Add(static_cast<double>(SampleTransferBytes(rng, true)));
  }
  // §4: ~10KB mean per hit; home pages ~50KB with images.
  EXPECT_NEAR(regular.mean(), 10 * 1024, 1024);
  EXPECT_NEAR(home.mean(), 50 * 1024, 5 * 1024);
  EXPECT_GE(regular.min(), 256.0);
}

// --- sampler ---------------------------------------------------------------------

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.days = 5;
    config_.num_sports = 3;
    config_.events_per_sport = 5;
    config_.athletes_per_event = 6;
    config_.num_countries = 8;
    ASSERT_TRUE(OlympicSite::Build(config_, &db_).ok());
    OlympicSite::RegisterGenerators(config_, &db_, &renderer_);
  }

  OlympicConfig config_;
  db::Database db_{db::DatabaseOptions{}};
  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  pagegen::PageRenderer renderer_{&graph_, &cache_};
};

TEST_F(SamplerTest, EverySampledPageIsGenerable) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(3);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::string page = sampler.Sample(rng);
    EXPECT_TRUE(renderer_.CanGenerate(page)) << page;
  }
}

TEST_F(SamplerTest, DayHomeDominates) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  Rng rng(11);
  int home_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sampler.Sample(rng) == "/day/2") ++home_hits;
  }
  // ~26% day-home share with 70% today-bias → today's home page is the
  // single hottest page (paper: >25% of users satisfied by the home page).
  EXPECT_GT(home_hits / double(n), 0.12);
}

TEST_F(SamplerTest, CurrentDayClamped) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(99);
  EXPECT_EQ(sampler.current_day(), config_.days);
  sampler.SetCurrentDay(-1);
  EXPECT_EQ(sampler.current_day(), 1);
}

TEST_F(SamplerTest, Deterministic) {
  PageSampler a(config_, db_), b(config_, db_);
  a.SetCurrentDay(2);
  b.SetCurrentDay(2);
  Rng ra(5), rb(5);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.Sample(ra), b.Sample(rb));
}

// --- result feed -----------------------------------------------------------------

class FeedTest : public SamplerTest {};

TEST_F(FeedTest, ScheduleIsDeterministicAndSorted) {
  ResultFeed feed_a(&db_, FeedOptions{}, 42);
  ResultFeed feed_b(&db_, FeedOptions{}, 42);
  const auto a = feed_a.BuildDaySchedule(1);
  const auto b = feed_b.BuildDaySchedule(1);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].event_id, b[i].event_id);
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
  }
}

TEST_F(FeedTest, EveryEventOnDayGetsResultsAndCompletion) {
  ResultFeed feed(&db_, FeedOptions{}, 42);
  const auto schedule = feed.BuildDaySchedule(1);

  std::set<int64_t> completed;
  std::map<int64_t, int> results_per_event;
  for (const auto& u : schedule) {
    if (u.kind == FeedUpdate::Kind::kCompleteEvent) completed.insert(u.event_id);
    if (u.kind == FeedUpdate::Kind::kResult) ++results_per_event[u.event_id];
  }
  const auto day_events = CopyRows(
      db_, "events", db::RowFilter::Equals("day", db::Value(int64_t(1))));
  EXPECT_EQ(completed.size(), day_events.size());
  for (const auto& [event, count] : results_per_event) {
    EXPECT_GE(count, 3) << "event " << event;
  }
}

TEST_F(FeedTest, AppliedDayFinalizesEvents) {
  ResultFeed feed(&db_, FeedOptions{}, 42);
  const auto schedule = feed.BuildDaySchedule(1);
  EXPECT_FALSE(schedule.empty());
  for (const auto& update : schedule) {
    const Status s = feed.Apply(update);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Every day-1 event is final with medals awarded.
  for (const auto& row : CopyRows(db_, "events",
                                 db::RowFilter::Equals("day", db::Value(int64_t(1))))) {
    EXPECT_EQ(std::get<std::string>(row[5]), "final");
    EXPECT_TRUE(CopyRow(db_, "medals", row[0]));
  }
  // News was published.
  EXPECT_GT(db_.RowCount("news"),
            static_cast<size_t>(config_.initial_news_articles));
}

TEST_F(FeedTest, RanksOrderedByScore) {
  ResultFeed feed(&db_, FeedOptions{}, 42);
  for (const auto& update : feed.BuildDaySchedule(1)) {
    ASSERT_TRUE(feed.Apply(update).ok());
  }
  for (const auto& event_row : CopyRows(
           db_, "events", db::RowFilter::Equals("day", db::Value(int64_t(1))))) {
    const int64_t event_id = std::get<int64_t>(event_row[0]);
    auto results = CopyRows(db_, "results",
                            db::RowFilter::Equals("event_id", db::Value(event_id)));
    std::sort(results.begin(), results.end(),
              [](const db::Row& a, const db::Row& b) {
                return std::get<int64_t>(a[2]) < std::get<int64_t>(b[2]);
              });
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_GT(std::get<double>(results[i - 1][4]),
                std::get<double>(results[i][4]));
    }
  }
}

// --- navigation ---------------------------------------------------------------------

class NavigationTest : public SamplerTest {};

TEST_F(NavigationTest, SessionsAlwaysStartAtHome) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  NavigationModel model(&sampler);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto s98 = model.SampleSession(SiteDesign::k1998, rng);
    ASSERT_FALSE(s98.requests.empty());
    EXPECT_EQ(s98.requests[0], "/day/2");
    const auto s96 = model.SampleSession(SiteDesign::k1996, rng);
    EXPECT_EQ(s96.requests[0], "/");
  }
}

TEST_F(NavigationTest, NineteenNinetySixNeedsMoreRequests) {
  // §3.1: at least three requests to navigate to a result page in 1996;
  // the 1998 redesign cut that sharply. The paper's estimate: the 1996
  // design would have produced >3x the observed peak traffic.
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  NavigationModel model(&sampler);
  Rng rng(17);
  const double mean96 =
      model.MeanRequestsPerSession(SiteDesign::k1996, rng, 20000);
  const double mean98 =
      model.MeanRequestsPerSession(SiteDesign::k1998, rng, 20000);
  EXPECT_GE(mean96, 3.0);
  EXPECT_LE(mean98, 2.0);
  EXPECT_GT(mean96 / mean98, 1.8);
}

TEST_F(NavigationTest, HomeSatisfactionOver25Percent) {
  // §3.1: "over 25% of the users found the information they were looking
  // for by examining the home page for the current day."
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  NavigationModel model(&sampler);
  Rng rng(19);
  const double rate98 =
      model.HomeSatisfactionRate(SiteDesign::k1998, rng, 20000);
  const double rate96 =
      model.HomeSatisfactionRate(SiteDesign::k1996, rng, 20000);
  EXPECT_GT(rate98, 0.25);
  EXPECT_EQ(rate96, 0.0);  // the 1996 home page held no results
}

TEST_F(NavigationTest, GoalSessionsEndAtUsefulPage) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  NavigationModel model(&sampler);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const auto s = model.SampleSession(SiteDesign::k1998, rng);
    if (s.goal == Goal::kMedalStandings && !s.satisfied_on_home) {
      EXPECT_EQ(s.requests.back(), "/medals");
    }
    if (s.goal == Goal::kEventResult && !s.satisfied_on_home) {
      EXPECT_TRUE(s.requests.back().starts_with("/event/"));
    }
  }
}

// --- adversarial scenarios -------------------------------------------------------

class ScenarioTest : public SamplerTest {
 protected:
  static ScenarioOptions SmallScenario() {
    ScenarioOptions options;
    options.duration = 60 * kSecond;
    options.baseline_rps = 20.0;
    options.spike_multiplier = 50.0;
    options.spike_start = 20 * kSecond;
    options.spike_ramp = 2 * kSecond;
    options.spike_duration = 20 * kSecond;
    options.hot_page = "/medals";
    return options;
  }

  static std::string Serialize(const std::vector<ScenarioRequest>& stream) {
    std::string out;
    for (const auto& r : stream) {
      out += std::to_string(r.at);
      out += ' ';
      out += r.page;
      out += r.slow_client ? " slow\n" : "\n";
    }
    return out;
  }

  // Empirical rate (requests/s) for `page` over [from, to).
  static double WindowRate(const std::vector<ScenarioRequest>& stream,
                           TimeNs from, TimeNs to, const std::string& page) {
    size_t n = 0;
    for (const auto& r : stream) {
      if (r.at >= from && r.at < to && r.page == page) ++n;
    }
    return static_cast<double>(n) * 1e9 / static_cast<double>(to - from);
  }
};

TEST_F(ScenarioTest, SameSeedGivesByteIdenticalStreams) {
  PageSampler sampler_a(config_, db_), sampler_b(config_, db_);
  sampler_a.SetCurrentDay(2);
  sampler_b.SetCurrentDay(2);
  for (const auto kind :
       {ScenarioKind::kBreakingNews, ScenarioKind::kAuctionClose,
        ScenarioKind::kLeaderboardTick, ScenarioKind::kSlowClientFlood}) {
    ScenarioGenerator a(&sampler_a, SmallScenario(), 97);
    ScenarioGenerator b(&sampler_b, SmallScenario(), 97);
    EXPECT_EQ(Serialize(a.Build(kind)), Serialize(b.Build(kind)))
        << "scenario " << static_cast<int>(kind);
    ScenarioGenerator c(&sampler_a, SmallScenario(), 98);
    EXPECT_NE(Serialize(a.Build(kind)), Serialize(c.Build(kind)))
        << "scenario " << static_cast<int>(kind) << " ignores its seed";
  }
}

TEST_F(ScenarioTest, BreakingNewsRampsToPeakThenDecays) {
  const auto options = SmallScenario();
  // No sampler: a pure hot-page stream, so every request is spike traffic.
  ScenarioGenerator gen(nullptr, options, 7);
  const double peak = options.baseline_rps * options.spike_multiplier;
  EXPECT_DOUBLE_EQ(gen.RateAt(ScenarioKind::kBreakingNews,
                              options.spike_start + options.spike_ramp),
                   peak);
  EXPECT_DOUBLE_EQ(
      gen.RateAt(ScenarioKind::kBreakingNews, options.spike_start - 1), 0.0);

  const auto stream = gen.Build(ScenarioKind::kBreakingNews);
  ASSERT_FALSE(stream.empty());
  for (const auto& r : stream) {
    EXPECT_GE(r.at, options.spike_start);  // silence before the decision
    EXPECT_LT(r.at, options.duration);
    EXPECT_EQ(r.page, options.hot_page);
    EXPECT_FALSE(r.slow_client);
  }
  // The linear ramp averages half the peak...
  const double ramp_rate =
      WindowRate(stream, options.spike_start,
                 options.spike_start + options.spike_ramp, options.hot_page);
  EXPECT_NEAR(ramp_rate, peak / 2, peak / 8);
  // ...and the crowd has mostly dispersed by three time constants out.
  const double tail_rate = WindowRate(
      stream, options.spike_start + options.spike_ramp + options.spike_duration,
      options.duration, options.hot_page);
  EXPECT_LT(tail_rate, peak / 10);
}

TEST_F(ScenarioTest, AuctionCloseBuildsThenVanishes) {
  const auto options = SmallScenario();
  ScenarioGenerator gen(nullptr, options, 11);
  const double peak = options.baseline_rps * options.spike_multiplier;
  const TimeNs close = options.spike_start + options.spike_duration;
  EXPECT_NEAR(gen.RateAt(ScenarioKind::kAuctionClose, close - kMillisecond),
              peak, peak / 100);
  EXPECT_DOUBLE_EQ(gen.RateAt(ScenarioKind::kAuctionClose, close), 0.0);

  const auto stream = gen.Build(ScenarioKind::kAuctionClose);
  ASSERT_FALSE(stream.empty());
  // Quadratic build-up: the second half of the window carries ~7x the
  // traffic of the first.
  const TimeNs mid = options.spike_start + options.spike_duration / 2;
  const double early =
      WindowRate(stream, options.spike_start, mid, options.hot_page);
  const double late = WindowRate(stream, mid, close, options.hot_page);
  EXPECT_GT(late, 3 * early);
  // The instant the auction closes, interest vanishes.
  for (const auto& r : stream) EXPECT_LT(r.at, close);
}

TEST_F(ScenarioTest, LeaderboardTickPlateauAndCadence) {
  const auto options = SmallScenario();
  ScenarioGenerator gen(nullptr, options, 13);
  const double peak = options.baseline_rps * options.spike_multiplier;

  const auto stream = gen.Build(ScenarioKind::kLeaderboardTick);
  const double plateau =
      WindowRate(stream, options.spike_start,
                 options.spike_start + options.spike_duration,
                 options.hot_page);
  EXPECT_NEAR(plateau, peak, peak / 10);
}

TEST_F(ScenarioTest, SlowClientFloodMarksItsPopulation) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  auto options = SmallScenario();
  options.slow_client_share = 0.3;
  ScenarioGenerator gen(&sampler, options, 17);
  const double flood_rate =
      options.baseline_rps * options.spike_multiplier * 0.3;

  const auto stream = gen.Build(ScenarioKind::kSlowClientFlood);
  size_t slow = 0, fast = 0;
  for (const auto& r : stream) {
    if (r.slow_client) {
      ++slow;
      // Flooders hammer the hot page inside the flood window only.
      EXPECT_EQ(r.page, options.hot_page);
      EXPECT_GE(r.at, options.spike_start);
      EXPECT_LT(r.at, options.spike_start + options.spike_duration);
    } else {
      ++fast;
    }
  }
  EXPECT_GT(fast, 0u);  // background viewers ride along
  const double empirical =
      static_cast<double>(slow) * 1e9 /
      static_cast<double>(options.spike_duration);
  EXPECT_NEAR(empirical, flood_rate, flood_rate / 5);
}

// Zipf-baseline regression: the scenario layer must not perturb the normal
// popularity model it rides on — pre-spike traffic is the same sampler
// distribution the diurnal benches use (day-home dominant, all generable).
TEST_F(ScenarioTest, BackgroundTrafficKeepsZipfBaseline) {
  PageSampler sampler(config_, db_);
  sampler.SetCurrentDay(2);
  const auto options = SmallScenario();
  ScenarioGenerator gen(&sampler, options, 19);
  const auto stream = gen.Build(ScenarioKind::kBreakingNews);

  size_t background = 0, day_home = 0;
  for (const auto& r : stream) {
    if (r.at >= options.spike_start) continue;  // pure background window
    ++background;
    if (r.page == "/day/2") ++day_home;
    EXPECT_TRUE(renderer_.CanGenerate(r.page)) << r.page;
  }
  ASSERT_GT(background, 100u);
  EXPECT_GT(static_cast<double>(day_home) / static_cast<double>(background),
            0.12);
}

}  // namespace
}  // namespace nagano::workload
