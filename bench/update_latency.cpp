// FRESH — §1/§3.1 freshness claims:
//
//   * "Whenever new results were entered into the system, updated Web
//      pages reflecting the changes were made available to the rest of the
//      world within seconds."
//   * "approximately 21,000 were dynamically created, reflecting current
//      events within a maximum of sixty seconds after the event was
//      recorded."
//   * "completion of an event could cause over a hundred pages to change.
//      For example, one typical update to Cross Country Skiing results
//      affected the values of 128 Web pages."
//
// Method: full-size synthetic site, prefetched; replay a day of the result
// feed measuring (a) wall-clock commit -> cache-consistent latency per
// update, (b) the DUP fan-out of event completions, (c) the whole day
// replayed twice with one quiesce at the end, whose final caches must be
// byte-identical, and (d) the bytes re-rendered per commit with and
// without fragment composition.
//
//   update_latency                    # full run; exits non-zero if the two
//                                     # replays' caches differ
//   update_latency --json=<path>      # also writes the JSON artifact there
//   update_latency --quick            # the fanout-bytes gate alone
//
// The JSON goes only to the path --json names; nothing is written to the
// working directory. The committed baseline is BENCH_update_latency.json at
// the repository root.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/serving_site.h"
#include "odg/dup.h"
#include "workload/feed.h"

using namespace nagano;

namespace {

core::SiteOptions FullSite() {
  core::SiteOptions options;
  options.olympic.days = 16;
  options.olympic.num_sports = 10;
  options.olympic.events_per_sport = 12;
  options.olympic.athletes_per_event = 25;
  options.olympic.num_countries = 30;
  options.olympic.initial_news_articles = 40;
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

struct ReplayRun {
  double replay_s = 0.0;
  trigger::TriggerStats stats;
  size_t entries = 0;
  uint64_t digest = 0;  // FNV-1a over the key-sorted final cache contents
};

// --- fragment-first fanout bytes ------------------------------------------
//
// The FRAG experiment: a scoreboard commit (medal-moving result) reaches
// every page embedding the medal-standings fragment. In whole-page mode
// each of those pages re-renders end to end; in fragment mode the fragment
// re-renders once and every embedding page is patched in place, so the
// bytes produced per commit collapse. fanout_bytes_per_commit is the
// nagano_dup_fanout_bytes histogram with one observation per quiesced
// commit.

core::SiteOptions FanoutSite(bool quick) {
  core::SiteOptions options;
  if (quick) {
    // Sized so the scoreboard fragment fans out into ~100 embedding pages
    // (16 days + schedule/medals across en+ja) while the unavoidable
    // re-renders (the completed event's own pages, medalist countries)
    // stay small — the shape the fragment-first refactor targets.
    options.olympic.days = 26;
    options.olympic.num_sports = 8;
    options.olympic.events_per_sport = 12;
    options.olympic.athletes_per_event = 4;
    options.olympic.num_countries = 30;
    options.olympic.initial_news_articles = 12;
  } else {
    options = FullSite();
  }
  options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
  return options;
}

struct FanoutRun {
  bool compose = false;
  size_t pages = 0;              // cached objects at prefetch
  uint64_t commits = 0;          // quiesced commits replayed
  uint64_t rerendered_bytes = 0; // total bytes produced by re-renders
  uint64_t plans_patched = 0;
  uint64_t renders = 0;
  Histogram per_commit;          // bytes re-rendered per quiesced commit
  // The scoreboard class alone: event completions move the medal standings,
  // whose fragment is embedded across every day/medals page — the commit
  // class the fragment-first refactor targets.
  Histogram per_scoreboard_commit;
};

// Replays the same medal-moving commit sequence (results + event
// completions) against a fresh prefetched site in composition or
// whole-page mode, quiescing after every commit and measuring the bytes
// re-rendered per commit from the trigger's rerendered-bytes counter.
std::optional<FanoutRun> RunFanout(bool compose, bool quick) {
  core::SiteOptions options = FanoutSite(quick);
  options.compose_pages = compose;
  auto site_or = core::ServingSite::Create(std::move(options));
  if (!site_or.ok()) return std::nullopt;
  auto& site = *site_or.value();
  const auto prefetched = site.PrefetchAll();
  if (!prefetched.ok()) return std::nullopt;
  site.StartTrigger();

  FanoutRun run;
  run.compose = compose;
  run.pages = prefetched.value();
  uint64_t bytes_before = 0;
  const auto commit = [&](Status status, bool scoreboard) -> bool {
    if (!status.ok()) return false;
    site.Quiesce();
    const uint64_t bytes_now = site.trigger_monitor().stats().rerendered_bytes;
    const double delta = static_cast<double>(bytes_now - bytes_before);
    bytes_before = bytes_now;
    run.per_commit.Add(delta);
    if (scoreboard) run.per_scoreboard_commit.Add(delta);
    ++run.commits;
    return true;
  };
  const int events = quick ? 6 : 24;
  for (int event = 1; event <= events; ++event) {
    for (int rank = 1; rank <= 3; ++rank) {
      if (!commit(site.RecordResult(event, rank, rank + event, 95.0 - rank),
                  /*scoreboard=*/false)) {
        return std::nullopt;
      }
    }
    // The scoreboard commit: completion awards G/S/B, so the standings
    // fragment and every page embedding it are affected.
    if (!commit(site.CompleteEvent(event), /*scoreboard=*/true)) {
      return std::nullopt;
    }
  }
  site.StopTrigger();

  const auto stats = site.trigger_monitor().stats();
  run.rerendered_bytes = stats.rerendered_bytes;
  run.plans_patched = stats.plans_patched;
  run.renders = stats.objects_updated;
  return run;
}

// Runs the fragment-vs-whole-page comparison and emits the FRAG section.
// Returns the fanout-bytes ratio (whole-page / fragment, per mean commit),
// or nullopt on failure.
std::optional<double> RunFanoutComparison(bool quick, std::string& json_out) {
  bench::Section(quick ? "fanout bytes per commit (quick gate)"
                       : "fanout bytes per commit (fragment vs whole-page)");
  auto frag = RunFanout(/*compose=*/true, quick);
  auto whole = RunFanout(/*compose=*/false, quick);
  if (!frag || !whole) return std::nullopt;
  for (const FanoutRun* run : {&*whole, &*frag}) {
    bench::Row("%-12s %4zu pages  %3llu commits  %9llu bytes re-rendered  "
               "%6llu renders  %6llu plans patched  per-commit p50=%.0f  "
               "scoreboard mean=%.0f",
               run->compose ? "fragment" : "whole-page", run->pages,
               static_cast<unsigned long long>(run->commits),
               static_cast<unsigned long long>(run->rerendered_bytes),
               static_cast<unsigned long long>(run->renders),
               static_cast<unsigned long long>(run->plans_patched),
               run->per_commit.Percentile(0.5),
               run->per_scoreboard_commit.mean());
  }
  // All-commit reduction is diluted by result commits whose event/athlete
  // pages legitimately re-render in both modes; the scoreboard class is
  // where the fragment refactor pays — its fragment fans out into every
  // day/medals page, all of which patch instead of re-rendering.
  const double frag_mean = frag->per_scoreboard_commit.mean();
  const double whole_mean = whole->per_scoreboard_commit.mean();
  const double ratio = frag_mean > 0 ? whole_mean / frag_mean : 0.0;
  const double all_ratio =
      frag->per_commit.mean() > 0
          ? whole->per_commit.mean() / frag->per_commit.mean()
          : 0.0;
  bench::Compare("all-commit fanout bytes, whole-page vs fragment", 2.0,
                 all_ratio, "x reduction");
  bench::Compare("scoreboard-commit fanout bytes, whole-page vs fragment",
                 10.0, ratio,
                 quick ? "x reduction (target >= 10x)"
                       : "x reduction (the >= 10x gate runs on the --quick "
                         "site; the full site's richer event/country pages "
                         "re-render in both modes)");

  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\n"
      "    \"fragment\": {\"mean\": %.1f, \"p50\": %.1f, \"max\": %.1f, "
      "\"scoreboard_mean\": %.1f, \"total\": %llu, \"plans_patched\": %llu},\n"
      "    \"whole_page\": {\"mean\": %.1f, \"p50\": %.1f, \"max\": %.1f, "
      "\"scoreboard_mean\": %.1f, \"total\": %llu},\n"
      "    \"reduction_x\": %.2f,\n"
      "    \"scoreboard_reduction_x\": %.2f\n"
      "  },\n",
      quick ? "fanout_quick_gate" : "fanout_bytes_per_commit",
      frag->per_commit.mean(), frag->per_commit.Percentile(0.5),
      frag->per_commit.max(), frag_mean,
      static_cast<unsigned long long>(frag->rerendered_bytes),
      static_cast<unsigned long long>(frag->plans_patched),
      whole->per_commit.mean(), whole->per_commit.Percentile(0.5),
      whole->per_commit.max(), whole_mean,
      static_cast<unsigned long long>(whole->rerendered_bytes), all_ratio,
      ratio);
  json_out = buf;
  return ratio;
}

// Replays the same deterministic feed day against a fresh prefetched site,
// quiescing once at the end, and digests the final cache so runs can be
// compared for byte-identity.
std::optional<ReplayRun> ReplayDay() {
  auto site_or = core::ServingSite::Create(FullSite());
  if (!site_or.ok()) return std::nullopt;
  auto& site = *site_or.value();
  if (!site.PrefetchAll().ok()) return std::nullopt;
  site.StartTrigger();

  workload::FeedOptions feed_options;
  feed_options.results_per_event = 25;
  workload::ResultFeed feed(&site.db(), feed_options, 60);
  const auto schedule = feed.BuildDaySchedule(1);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& update : schedule) {
    if (!feed.Apply(update).ok()) return std::nullopt;
  }
  site.Quiesce();
  const auto end = std::chrono::steady_clock::now();
  site.StopTrigger();

  ReplayRun run;
  run.replay_s = std::chrono::duration<double>(end - start).count();
  run.stats = site.trigger_monitor().stats();
  uint64_t digest = 14695981039346656037ull;
  for (const auto& [key, object] : site.cache().Snapshot()) {
    digest = Fnv1a(key, digest);
    digest = Fnv1a(object->Materialize(), digest);
    ++run.entries;
  }
  run.digest = digest;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: the fragment-vs-whole-page fanout regression gate alone, on a
  // small site — the ci.sh `fragments` leg runs this and fails the build
  // when composition stops cutting per-commit fanout bytes by >= 10x.
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg.starts_with("--json=")) {
      json_path = std::string(arg.substr(7));
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json=<path>]\n", argv[0]);
      return 2;
    }
  }
  if (quick) {
    bench::Header("FRESH", "fragment fanout regression gate (--quick)");
    std::string json_fragment;
    const auto ratio = RunFanoutComparison(/*quick=*/true, json_fragment);
    if (!ratio) {
      std::fprintf(stderr, "fanout comparison failed\n");
      return 1;
    }
    if (*ratio < 10.0) {
      std::fprintf(stderr,
                   "REGRESSION: fragment composition cut fanout bytes only "
                   "%.2fx (target >= 10x)\n",
                   *ratio);
      return 1;
    }
    return 0;
  }

  bench::Header("FRESH", "update latency and fan-out");

  core::SiteOptions options = FullSite();

  auto site_or = core::ServingSite::Create(std::move(options));
  if (!site_or.ok()) {
    std::fprintf(stderr, "%s\n", site_or.status().ToString().c_str());
    return 1;
  }
  auto& site = *site_or.value();
  const auto prefetched = site.PrefetchAll();
  if (!prefetched.ok()) return 1;
  bench::Row("site: %zu cached objects, ODG %zu vertices / %zu edges",
             prefetched.value(), site.graph().node_count(),
             site.graph().edge_count());

  site.StartTrigger();

  // Replay a full feed day with a large field per event (cross-country
  // style), quiescing after each update so the per-update latency (commit
  // -> every affected cached page refreshed) is exact. Per-event fan-out is
  // the union of DUP affected sets over all of that event's updates.
  workload::FeedOptions feed_options;
  feed_options.results_per_event = 25;
  workload::ResultFeed feed(&site.db(), feed_options, 60);
  Histogram latency_ms;
  Histogram event_fanout;
  std::map<int64_t, std::set<std::string>> fanout_by_event;

  for (const auto& update : feed.BuildDaySchedule(1)) {
    const uint64_t seqno_before = site.db().LastSeqno();
    const auto start = std::chrono::steady_clock::now();
    if (!feed.Apply(update).ok()) return 1;
    site.Quiesce();
    const auto end = std::chrono::steady_clock::now();
    latency_ms.Add(
        std::chrono::duration<double, std::milli>(end - start).count());

    if (update.event_id == 0) continue;
    auto& touched = fanout_by_event[update.event_id];
    std::vector<odg::NodeId> changed;
    auto batch = site.db().ReadChanges(site.db().CursorAtGlobal(seqno_before));
    if (!batch.ok()) return 1;
    for (const auto& change : batch.value().records) {
      for (const auto& node :
           pagegen::OlympicSite::MapChangeToDataNodes(change, site.db())) {
        const auto id = site.graph().Find(node);
        if (id != odg::kInvalidNode) changed.push_back(id);
      }
    }
    for (const auto& obj :
         odg::DupEngine::ComputeAffected(site.graph(), changed).affected) {
      touched.insert(std::string(site.graph().name(obj.id)));
    }
  }
  site.StopTrigger();
  for (const auto& [event, pages] : fanout_by_event) {
    event_fanout.Add(static_cast<double>(pages.size()));
  }

  bench::Section("commit -> cache-consistent latency (wall clock)");
  bench::Row("%s ms", latency_ms.Summary().c_str());

  bench::Section("unique objects affected per event (DUP fan-out)");
  bench::Row("%s", event_fanout.Summary().c_str());

  const auto tstats = site.trigger_monitor().stats();
  bench::Row("day totals: %llu changes, %llu DUP runs, %llu pages updated "
             "in place, %llu invalidations",
             static_cast<unsigned long long>(tstats.changes_processed),
             static_cast<unsigned long long>(tstats.dup_runs),
             static_cast<unsigned long long>(tstats.objects_updated),
             static_cast<unsigned long long>(tstats.objects_invalidated));

  bench::Section("pipeline stage counters (per-update quiesce)");
  bench::Row("batches=%llu coalesced=%llu attempted=%llu skipped=%llu",
             static_cast<unsigned long long>(tstats.batches),
             static_cast<unsigned long long>(tstats.changes_coalesced),
             static_cast<unsigned long long>(tstats.renders_attempted),
             static_cast<unsigned long long>(tstats.objects_skipped));
  bench::Row("batch apply: %s ms", tstats.batch_apply_ms.Summary().c_str());

  bench::Section("paper comparison");
  bench::Compare("max update latency (60 s bound)", 60'000.0,
                 latency_ms.max(), "ms");
  bench::Compare("typical latency 'within seconds'", 1000.0,
                 latency_ms.Percentile(0.99), "ms (p99, must be < seconds)");
  bench::Compare("per-event fan-out (paper: 128 pages)", 128.0,
                 event_fanout.max(),
                 "pages (max; en+ja variants, French news-only)");
  bench::CompareText("one event changes >100 objects", "yes",
                     event_fanout.max() >= 100.0 ? "yes" : "no");

  // --- determinism: the same feed day replayed twice ----------------------
  bench::Section("full-day replay (quiesce once), twice");
  std::vector<ReplayRun> runs;
  for (int replay = 0; replay < 2; ++replay) {
    auto run = ReplayDay();
    if (!run) {
      std::fprintf(stderr, "day replay failed\n");
      return 1;
    }
    bench::Row("replay %d  %7.3f s  %6llu objects updated  %4llu batches  "
               "%4llu coalesced  %zu entries  digest %016llx",
               replay + 1, run->replay_s,
               static_cast<unsigned long long>(run->stats.objects_updated),
               static_cast<unsigned long long>(run->stats.batches),
               static_cast<unsigned long long>(run->stats.changes_coalesced),
               run->entries, static_cast<unsigned long long>(run->digest));
    runs.push_back(*run);
  }
  const bool identical = runs[0].digest == runs[1].digest &&
                         runs[0].entries == runs[1].entries;
  bench::CompareText("final cache byte-identical across replays", "yes",
                     identical ? "yes" : "no");

  // --- fragment composition: fanout bytes per commit ----------------------
  std::string fanout_json;
  const auto fanout_ratio = RunFanoutComparison(/*quick=*/false, fanout_json);
  if (!fanout_ratio) {
    std::fprintf(stderr, "fanout comparison failed\n");
    return 1;
  }
  // The gated series too (the acceptance shape: a scoreboard fragment
  // embedded in ~100 lean pages), so the committed baseline records the
  // >= 10x reduction next to the full-site numbers.
  std::string gate_json;
  const auto gate_ratio = RunFanoutComparison(/*quick=*/true, gate_json);
  if (!gate_ratio) {
    std::fprintf(stderr, "quick-gate fanout comparison failed\n");
    return 1;
  }
  if (*gate_ratio < 10.0) {
    std::fprintf(stderr,
                 "REGRESSION: fragment composition cut quick-gate fanout "
                 "bytes only %.2fx (target >= 10x)\n",
                 *gate_ratio);
    return 1;
  }

  if (!json_path.empty()) {
    // Machine-readable artifact consumed by EXPERIMENTS.md.
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"update_latency\",\n"
         << "  \"hardware_threads\": "
         << std::max(1u, std::thread::hardware_concurrency()) << ",\n"
         << "  \"latency_ms\": {\"p50\": " << latency_ms.Percentile(0.5)
         << ", \"p99\": " << latency_ms.Percentile(0.99)
         << ", \"max\": " << latency_ms.max() << "},\n"
         << "  \"fanout\": {\"mean\": " << event_fanout.mean()
         << ", \"max\": " << event_fanout.max() << "},\n"
         << "  \"replays\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      const ReplayRun& r = runs[i];
      json << "    {\"replay_s\": " << r.replay_s
           << ", \"objects_updated\": " << r.stats.objects_updated
           << ", \"changes_coalesced\": " << r.stats.changes_coalesced
           << ", \"batches\": " << r.stats.batches
           << ", \"entries\": " << r.entries << ", \"digest\": \"" << std::hex
           << r.digest << std::dec << "\"}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << fanout_json
         << gate_json
         << "  \"identical_contents\": " << (identical ? "true" : "false")
         << "\n}\n";
    json.close();
    if (!json) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    bench::Row("wrote %s", json_path.c_str());
  }

  if (!identical) return 1;
  return 0;
}
