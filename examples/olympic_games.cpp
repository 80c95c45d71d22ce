// olympic_games — a compressed 16-day Olympic Games, end to end.
//
// Each simulated day: the scoring feed commits results/medals/news into
// the master database; the trigger monitor runs DUP and refreshes the
// cache in place; Zipf request traffic hits the server program throughout.
// The daily digest shows what a site operator watched in Nagano: pages
// updated, hit rate, medal leaders, freshness.
//
// Run: build/examples/olympic_games [days]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/serving_site.h"
#include "workload/feed.h"
#include "workload/sampler.h"

using namespace nagano;

int main(int argc, char** argv) {
  int days = 16;
  if (argc > 1) days = std::atoi(argv[1]);
  if (days < 1 || days > 16) days = 16;

  core::SiteOptions options;
  options.olympic.days = 16;
  options.olympic.num_sports = 7;
  options.olympic.events_per_sport = 10;
  options.olympic.athletes_per_event = 12;
  options.olympic.num_countries = 24;
  options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;

  auto site_or = core::ServingSite::Create(std::move(options));
  if (!site_or.ok()) {
    std::fprintf(stderr, "create: %s\n", site_or.status().ToString().c_str());
    return 1;
  }
  auto& site = *site_or.value();

  auto prefetched = site.PrefetchAll();
  if (!prefetched.ok()) {
    std::fprintf(stderr, "prefetch: %s\n",
                 prefetched.status().ToString().c_str());
    return 1;
  }
  std::printf("site up: %zu objects prefetched, ODG %zu vertices / %zu edges\n",
              prefetched.value(), site.graph().node_count(),
              site.graph().edge_count());

  site.StartTrigger();
  workload::PageSampler sampler(site.olympic_config(), site.db());
  workload::ResultFeed feed(&site.db(), workload::FeedOptions{}, 1998);
  Rng rng(7);

  std::printf("%-5s %8s %9s %9s %10s %8s\n", "day", "updates", "requests",
              "hit rate", "refreshed", "events");
  for (int day = 1; day <= days; ++day) {
    sampler.SetCurrentDay(day);
    const uint64_t updated_before =
        site.trigger_monitor().stats().objects_updated;
    const uint64_t hits_before = site.page_server().stats().cache_hits;
    const uint64_t misses_before = site.page_server().stats().cache_misses;

    size_t updates = 0, requests = 0;
    for (const auto& update : feed.BuildDaySchedule(day)) {
      if (!feed.Apply(update).ok()) return 1;
      ++updates;
      for (int r = 0; r < 120; ++r) {
        site.Serve(sampler.Sample(rng));
        ++requests;
      }
    }
    site.Quiesce();

    const auto serve = site.page_server().stats();
    const uint64_t day_hits = serve.cache_hits - hits_before;
    const uint64_t day_misses = serve.cache_misses - misses_before;
    const double day_rate =
        day_hits + day_misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(day_hits) /
                  static_cast<double>(day_hits + day_misses);
    size_t finals = 0;
    site.db().Read("events", db::RowFilter::All(), [&](const db::Row& r) {
      finals += std::get<std::string>(r[5]) == "final";
    });
    std::printf("%-5d %8zu %9zu %8.2f%% %10" PRIu64 " %8zu\n", day, updates,
                requests, day_rate,
                site.trigger_monitor().stats().objects_updated - updated_before,
                finals);
  }

  // Final medal table, straight from the always-fresh cache. Strip tags
  // for the console: keep text, drop everything between < and >.
  std::printf("\nfinal medal standings (served from cache):\n");
  const auto medals = site.Serve("/medals", /*include_body=*/true);
  size_t pos = medals.body.find("<tr><td>");
  int rows = 0;
  while (rows < 6 && pos != std::string::npos) {
    const size_t end = medals.body.find("</tr>", pos);
    if (end == std::string::npos) break;
    std::string text;
    bool in_tag = false;
    for (size_t i = pos; i < end; ++i) {
      const char c = medals.body[i];
      if (c == '<') {
        in_tag = true;
        text += ' ';
      } else if (c == '>') {
        in_tag = false;
      } else if (!in_tag) {
        text += c;
      }
    }
    std::printf("  %s\n", text.c_str());
    pos = medals.body.find("<tr><td>", end);
    ++rows;
  }

  const auto trigger = site.trigger_monitor().stats();
  std::printf("\ngames totals: hit rate %.2f%%, %" PRIu64
              " pages refreshed in place, %" PRIu64 " invalidations\n",
              100.0 * site.page_server().stats().CacheHitRate(),
              trigger.objects_updated, trigger.objects_invalidated);
  std::printf("update latency: %s ms\n",
              trigger.update_latency_ms.Summary().c_str());

  site.StopTrigger();
  return 0;
}
