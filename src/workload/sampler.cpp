#include "workload/sampler.h"

#include <algorithm>
#include <cassert>

namespace nagano::workload {
namespace {

using db::Row;
using pagegen::OlympicSite;

int64_t AsInt(const db::Value& v) { return std::get<int64_t>(v); }
const std::string& AsString(const db::Value& v) {
  return std::get<std::string>(v);
}

}  // namespace

PageSampler::PageSampler(const pagegen::OlympicConfig& config,
                         const db::Database& db, SamplerOptions options)
    : options_(options),
      days_(config.days),
      languages_(config.languages.empty() ? std::vector<std::string>{"en"}
                                          : config.languages),
      french_news_(config.french_news),
      athlete_zipf_(1, 1.0),  // re-built below once sizes are known
      event_zipf_(1, 1.0) {
  events_by_day_.resize(static_cast<size_t>(days_));
  const auto all = db::RowFilter::All();
  db.Read("events", all, [&](const Row& r) {
    const int64_t id = AsInt(r[0]);
    const int day = static_cast<int>(AsInt(r[3]));
    event_ids_.push_back(id);
    if (day >= 1 && day <= days_) {
      events_by_day_[static_cast<size_t>(day - 1)].push_back(id);
    }
  });
  db.Read("athletes", all,
          [&](const Row& r) { athlete_ids_.push_back(AsInt(r[0])); });
  db.Read("sports", all,
          [&](const Row& r) { sport_ids_.push_back(AsInt(r[0])); });
  db.Read("countries", all,
          [&](const Row& r) { country_codes_.push_back(AsString(r[0])); });
  db.Read("news", all, [&](const Row& r) { news_ids_.push_back(AsInt(r[0])); });

  athlete_zipf_ = ZipfDistribution(std::max<size_t>(1, athlete_ids_.size()),
                                   options_.zipf_skew);
  event_zipf_ = ZipfDistribution(std::max<size_t>(1, event_ids_.size()),
                                 options_.zipf_skew);

  const std::pair<double, std::string (PageSampler::*)(Rng&) const> raw[] = {
      {options_.day_home, &PageSampler::PickDayHome},
      {options_.event_pages, &PageSampler::PickEvent},
      {options_.athlete_pages, &PageSampler::PickAthlete},
      {options_.sport_pages, &PageSampler::PickSport},
      {options_.country_pages, &PageSampler::PickCountry},
      {options_.medals_page, &PageSampler::PickMedals},
      {options_.news_pages, &PageSampler::PickNews},
      {options_.schedule_pages, &PageSampler::PickSchedule},
      {options_.welcome_page, &PageSampler::PickWelcome},
  };
  double total = 0.0;
  for (const auto& [share, _] : raw) total += share;
  double cum = 0.0;
  for (const auto& [share, pick] : raw) {
    cum += share / total;
    category_cdf_.emplace_back(cum, pick);
  }
  category_cdf_.back().first = 1.0;
}

void PageSampler::SetCurrentDay(int day) {
  day_ = std::clamp(day, 1, days_);
}

std::string PageSampler::Sample(Rng& rng) const {
  std::string page = PickWelcome(rng);
  const double u = rng.NextDouble();
  for (const auto& [cum, pick] : category_cdf_) {
    if (u <= cum) {
      page = (this->*pick)(rng);
      break;
    }
  }
  // Language tier: the base pick is a default-language name; a share of
  // the audience reads the other language trees, and some news traffic
  // requests the French edition.
  const bool is_news = page.starts_with("/news");
  if (french_news_ && is_news && rng.NextBool(options_.french_news_share)) {
    return "/fr" + page;
  }
  if (languages_.size() > 1 &&
      !rng.NextBool(options_.default_language_share)) {
    const size_t alt =
        1 + rng.NextBelow(static_cast<uint64_t>(languages_.size() - 1));
    return "/" + languages_[alt] + page;
  }
  return page;
}

std::string PageSampler::PickDayHome(Rng& rng) const {
  // Mostly today; occasionally an earlier day's archive home page.
  if (day_ == 1 || rng.NextBool(options_.today_bias)) {
    return OlympicSite::DayHomePage(day_);
  }
  return OlympicSite::DayHomePage(
      static_cast<int>(rng.NextInt(1, std::max(1, day_ - 1))));
}

std::string PageSampler::PickEvent(Rng& rng) const {
  const auto& today = events_by_day_[static_cast<size_t>(day_ - 1)];
  if (!today.empty() && rng.NextBool(options_.today_bias)) {
    // Zipf over today's programme: the marquee event dominates.
    ZipfDistribution z(today.size(), options_.zipf_skew);
    return OlympicSite::EventPage(today[z.Sample(rng)]);
  }
  if (event_ids_.empty()) return "/";
  return OlympicSite::EventPage(event_ids_[event_zipf_.Sample(rng)]);
}

std::string PageSampler::PickAthlete(Rng& rng) const {
  if (athlete_ids_.empty()) return "/";
  return OlympicSite::AthletePage(athlete_ids_[athlete_zipf_.Sample(rng)]);
}

std::string PageSampler::PickSport(Rng& rng) const {
  if (sport_ids_.empty()) return "/";
  return OlympicSite::SportPage(
      sport_ids_[rng.NextBelow(sport_ids_.size())]);
}

std::string PageSampler::PickCountry(Rng& rng) const {
  if (country_codes_.empty()) return "/";
  // Mild skew: big delegations get more traffic.
  ZipfDistribution z(country_codes_.size(), 0.7);
  return OlympicSite::CountryPage(country_codes_[z.Sample(rng)]);
}

std::string PageSampler::PickMedals(Rng&) const {
  return OlympicSite::kMedalsPage;
}

std::string PageSampler::PickNews(Rng& rng) const {
  if (news_ids_.empty() || rng.NextBool(0.3)) {
    return OlympicSite::kNewsIndexPage;
  }
  // Recency skew: latest articles are hottest. news_ids_ ascend by id.
  ZipfDistribution z(news_ids_.size(), 1.2);
  const size_t from_newest = z.Sample(rng);
  return OlympicSite::NewsPage(
      news_ids_[news_ids_.size() - 1 - from_newest]);
}

std::string PageSampler::PickSchedule(Rng& rng) const {
  const int day = rng.NextBool(options_.today_bias)
                      ? day_
                      : static_cast<int>(rng.NextInt(1, days_));
  return "/schedule/day/" + std::to_string(day);
}

std::string PageSampler::PickWelcome(Rng&) const { return "/"; }

}  // namespace nagano::workload
