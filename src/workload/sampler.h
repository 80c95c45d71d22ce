// Page-popularity sampler over the Olympic site.
//
// §3.1: "over 25% of the users found the information they were looking for
// by examining the home page for the current day"; the hot set is the
// current day's home page, the day's events, the medal standings and the
// latest news, with a long Zipf tail over athletes, countries and archive
// pages. The sampler draws page names for the cache and cluster benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "pagegen/olympic.h"

namespace nagano::workload {

struct SamplerOptions {
  // Category shares; normalized internally. Calibrated to the 1998 design:
  // the day-home page front-loads results/news/medals.
  double day_home = 0.26;
  double event_pages = 0.24;
  double athlete_pages = 0.12;
  double sport_pages = 0.09;
  double country_pages = 0.07;
  double medals_page = 0.07;
  double news_pages = 0.08;
  double schedule_pages = 0.03;
  double welcome_page = 0.04;

  // Zipf skew inside each category (hot events dominate).
  double zipf_skew = 1.1;

  // Bias toward the current day: probability that an event/page pick comes
  // from today's programme rather than the archive.
  double today_bias = 0.7;

  // Share of traffic on the default-language pages; the rest spreads
  // evenly over the other configured languages (the 1998 site served a
  // large Japanese audience on the /ja tree).
  double default_language_share = 0.70;
  // Share of news-page traffic that requests the French edition.
  double french_news_share = 0.05;
};

class PageSampler {
 public:
  // Snapshot of the site's page inventory from the database.
  PageSampler(const pagegen::OlympicConfig& config, const db::Database& db,
              SamplerOptions options = {});

  // Sets the games day (1-based); today's pages become the hot set.
  void SetCurrentDay(int day);
  int current_day() const { return day_; }

  // Draws one page name.
  std::string Sample(Rng& rng) const;

 private:
  struct Category {
    double share;
    std::string (PageSampler::*pick)(Rng&) const;
  };

  std::string PickDayHome(Rng& rng) const;
  std::string PickEvent(Rng& rng) const;
  std::string PickAthlete(Rng& rng) const;
  std::string PickSport(Rng& rng) const;
  std::string PickCountry(Rng& rng) const;
  std::string PickMedals(Rng& rng) const;
  std::string PickNews(Rng& rng) const;
  std::string PickSchedule(Rng& rng) const;
  std::string PickWelcome(Rng& rng) const;

  SamplerOptions options_;
  int days_;
  int day_ = 1;
  std::vector<std::string> languages_;  // from the site config
  bool french_news_ = false;

  std::vector<int64_t> event_ids_;                 // all events
  std::vector<std::vector<int64_t>> events_by_day_;  // [day-1] -> ids
  std::vector<int64_t> athlete_ids_;
  std::vector<int64_t> sport_ids_;
  std::vector<std::string> country_codes_;
  std::vector<int64_t> news_ids_;

  ZipfDistribution athlete_zipf_;
  ZipfDistribution event_zipf_;
  std::vector<std::pair<double, std::string (PageSampler::*)(Rng&) const>>
      category_cdf_;
};

}  // namespace nagano::workload
