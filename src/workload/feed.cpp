#include "workload/feed.h"

#include <algorithm>

namespace nagano::workload {
namespace {

using db::Row;
using pagegen::OlympicSite;

int64_t AsInt(const db::Value& v) { return std::get<int64_t>(v); }

}  // namespace

ResultFeed::ResultFeed(db::Database* db, FeedOptions options, uint64_t seed)
    : db_(db), options_(options), rng_(seed) {}

std::vector<FeedUpdate> ResultFeed::BuildDaySchedule(int day) {
  std::vector<FeedUpdate> schedule;

  std::vector<std::pair<int64_t, int64_t>> events;  // (event id, sport id)
  db_->Read("events", db::RowFilter::Equals("day", db::Value(int64_t(day))),
            [&](const Row& event) {
              events.emplace_back(AsInt(event[0]), AsInt(event[1]));
            });

  for (const auto& [event_id, sport_id] : events) {
    // Field: athletes of this sport, shuffled deterministically.
    std::vector<int64_t> field;
    db_->Read("athletes",
              db::RowFilter::Equals("sport_id", db::Value(sport_id)),
              [&](const Row& athlete) { field.push_back(AsInt(athlete[0])); });
    if (field.size() < 3) continue;
    for (size_t i = field.size(); i > 1; --i) {
      std::swap(field[i - 1], field[rng_.NextBelow(i)]);
    }
    const int finishers =
        std::min<int>(options_.results_per_event, static_cast<int>(field.size()));

    // The event occupies a window starting at a staggered offset.
    const TimeNs start =
        options_.first_event_offset +
        static_cast<TimeNs>(rng_.NextBelow(8)) * (options_.event_window / 2);

    for (int rank = 1; rank <= finishers; ++rank) {
      FeedUpdate u;
      u.kind = FeedUpdate::Kind::kResult;
      u.at = start + (rank * options_.event_window) / (finishers + 1);
      u.event_id = event_id;
      u.rank = rank;
      u.athlete_id = field[static_cast<size_t>(rank - 1)];
      // Descending scores so rank order matches score order.
      u.score = 100.0 - rank + rng_.NextDouble();
      schedule.push_back(std::move(u));
    }

    FeedUpdate done;
    done.kind = FeedUpdate::Kind::kCompleteEvent;
    done.at = start + options_.event_window + kMinute;
    done.event_id = event_id;
    schedule.push_back(std::move(done));

    // The photo desk classifies shots shortly after the finish.
    for (int ph = 0; ph < options_.photos_per_event; ++ph) {
      FeedUpdate photo;
      photo.kind = FeedUpdate::Kind::kPhoto;
      photo.at = done.at + (ph + 1) * 5 * kMinute;
      photo.event_id = event_id;
      photo.photo_id = next_photo_id_++;
      photo.title = "Event " + std::to_string(event_id) + " photo " +
                    std::to_string(ph + 1);
      schedule.push_back(std::move(photo));
    }
  }

  for (int n = 0; n < options_.news_per_day; ++n) {
    FeedUpdate u;
    u.kind = FeedUpdate::Kind::kNews;
    u.at = options_.first_event_offset +
           static_cast<TimeNs>(rng_.NextBelow(10)) * kHour;
    u.article_id = next_article_id_++;
    u.title = "Day " + std::to_string(day) + " report #" + std::to_string(n + 1);
    schedule.push_back(std::move(u));
  }

  std::sort(schedule.begin(), schedule.end(),
            [](const FeedUpdate& a, const FeedUpdate& b) { return a.at < b.at; });
  return schedule;
}

Status ResultFeed::Apply(const FeedUpdate& update) {
  switch (update.kind) {
    case FeedUpdate::Kind::kResult:
      return OlympicSite::RecordResult(db_, update.event_id, update.rank,
                                       update.athlete_id, update.score);
    case FeedUpdate::Kind::kCompleteEvent:
      return OlympicSite::CompleteEvent(db_, update.event_id);
    case FeedUpdate::Kind::kPhoto:
      return OlympicSite::PublishPhoto(
          db_, update.photo_id, update.title, "event",
          std::to_string(update.event_id),
          /*day=*/static_cast<int>(update.at / kDay) + 1);
    case FeedUpdate::Kind::kNews:
      return OlympicSite::PublishNews(
          db_, update.article_id,
          /*day=*/static_cast<int>(update.at / kDay) + 1, update.title,
          "Filed from Nagano: " + update.title, /*sport_id=*/1);
  }
  return InternalError("unknown feed update kind");
}

}  // namespace nagano::workload
