// The result feed — scoring-system updates flowing into the master
// database (paper Fig. 4).
//
// For each event scheduled on a day, the feed emits a burst of result rows
// (competitors finishing) over a window, then a CompleteEvent that awards
// medals, flips the event final, and bumps country tallies — the update
// whose DUP fan-out touches day-home, sport, event, athlete, country and
// medal pages at once. Interleaved news publications model the editorial
// desk. The schedule is deterministic from a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "db/database.h"
#include "pagegen/olympic.h"

namespace nagano::workload {

struct FeedUpdate {
  enum class Kind : uint8_t { kResult, kCompleteEvent, kNews, kPhoto };
  TimeNs at = 0;  // offset from the day's start
  Kind kind = Kind::kResult;
  int64_t event_id = 0;
  int64_t rank = 0;
  int64_t athlete_id = 0;
  double score = 0.0;
  int64_t article_id = 0;
  std::string title;
  int64_t photo_id = 0;  // kPhoto: classified to event_id
};

struct FeedOptions {
  // Results per event (the paper's events had fields of 10-70).
  int results_per_event = 10;
  // Window within the day over which an event's results arrive.
  TimeNs event_window = 2 * kHour;
  // News articles published per day.
  int news_per_day = 6;
  // Photographs classified per event (attached shortly after completion).
  int photos_per_event = 2;
  // Events begin after this offset into the day.
  TimeNs first_event_offset = 9 * kHour;
};

class ResultFeed {
 public:
  ResultFeed(db::Database* db, FeedOptions options, uint64_t seed);

  // Builds the deterministic update schedule for `day` from the events
  // table. Times are offsets from the day's start, sorted ascending.
  std::vector<FeedUpdate> BuildDaySchedule(int day);

  // Applies one update to the database (master side).
  Status Apply(const FeedUpdate& update);

  int64_t next_article_id() const { return next_article_id_; }

 private:
  db::Database* db_;
  FeedOptions options_;
  Rng rng_;
  int64_t next_article_id_ = 1000;  // above the pre-seeded articles
  int64_t next_photo_id_ = 1;
};

}  // namespace nagano::workload
