// MEM — §5 memory claims:
//
//   * "All dynamic pages could be cached in memory without overflow.
//      Therefore, the system never had to apply a cache replacement
//      algorithm."
//   * "The maximum memory required for a single copy of all cached objects
//      was around 175 Mbytes."
//
// Method: build the synthetic site at a sweep of scales up to (and past)
// the real inventory of ~21,000 dynamic objects, prefetch everything, and
// report cache bytes and per-object mean. The cache has no replacement
// policy, so every prefetched object must still be resident: the bench
// exits non-zero at any scale where the cache's entry count differs from
// what PrefetchAll() stored. The absolute bytes differ from the paper's —
// our synthetic pages carry no image maps or full prose — so the
// comparison normalizes per object.
#include "bench_util.h"
#include "core/serving_site.h"

using namespace nagano;

namespace {

struct ScalePoint {
  const char* label;
  int sports, events_per_sport, athletes_per_event, countries, news;
};

}  // namespace

int main() {
  bench::Header("MEM", "cache footprint of a full single copy of the site");

  const ScalePoint scales[] = {
      {"small", 5, 6, 8, 12, 10},
      {"medium", 10, 12, 25, 30, 40},
      {"large", 12, 20, 60, 30, 120},
  };

  bench::Row("%-8s %10s %12s %14s %10s", "scale", "objects", "bytes",
             "bytes/object", "prefetched");

  bool all_resident = true;
  double last_bytes = 0;
  size_t last_objects = 0;
  for (const auto& scale : scales) {
    core::SiteOptions options;
    options.olympic.days = 16;
    options.olympic.num_sports = scale.sports;
    options.olympic.events_per_sport = scale.events_per_sport;
    options.olympic.athletes_per_event = scale.athletes_per_event;
    options.olympic.num_countries = scale.countries;
    options.olympic.initial_news_articles = scale.news;
    auto site_or = core::ServingSite::Create(std::move(options));
    if (!site_or.ok()) return 1;
    auto& site = *site_or.value();
    const auto prefetched = site.PrefetchAll();
    if (!prefetched.ok()) return 1;

    const auto stats = site.cache().stats();
    bench::Row("%-8s %10zu %12zu %14.1f %10zu", scale.label, stats.entries,
               stats.bytes,
               static_cast<double>(stats.bytes) /
                   static_cast<double>(stats.entries),
               prefetched.value());
    if (stats.entries != prefetched.value()) all_resident = false;
    last_bytes = static_cast<double>(stats.bytes);
    last_objects = stats.entries;
  }

  bench::Section("extrapolation to the 1998 inventory");
  // 21,000 dynamic objects at the paper's 175 MB => ~8.3 KB/object. Our
  // synthetic bodies are text-only; scale our per-object mean to 21,000
  // objects for the like-for-like number.
  const double per_object = last_bytes / static_cast<double>(last_objects);
  const double at_21k_mb = per_object * 21'000 / (1024.0 * 1024.0);
  bench::Row("our per-object mean %.0f B -> %.1f MB for 21,000 objects",
             per_object, at_21k_mb);
  bench::Row("paper: 175 MB / 21,000 objects = %.1f KB per object (full "
             "production pages)",
             175.0 * 1024.0 / 21'000.0);

  bench::Section("paper comparison");
  bench::Compare("paper per-object footprint", 8.5, per_object / 1024.0,
                 "KB (ours is text-only synthetic)");
  bench::CompareText("single copy fits in one node's memory", "yes (175MB)",
                     at_21k_mb < 512 ? "yes" : "no");
  bench::CompareText("cache replacement ever triggered", "never",
                     all_resident ? "never" : "yes");
  return all_resident ? 0 : 1;
}
