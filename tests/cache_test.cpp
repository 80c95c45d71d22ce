#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/clock.h"

namespace nagano::cache {
namespace {

TEST(CacheTest, MissOnEmpty) {
  ObjectCache cache;
  EXPECT_EQ(cache.Lookup("/day/1"), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(CacheTest, PutThenHit) {
  ObjectCache cache;
  cache.Put("/day/1", "<html>day 1</html>");
  const auto obj = cache.Lookup("/day/1");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->body, "<html>day 1</html>");
  EXPECT_EQ(obj->version, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 1.0);
}

TEST(CacheTest, UpdateInPlaceBumpsVersion) {
  ObjectCache cache;
  EXPECT_EQ(cache.Put("/medals", "v1")->version, 1u);
  EXPECT_EQ(cache.Put("/medals", "v2")->version, 2u);
  EXPECT_EQ(cache.Put("/medals", "v3")->version, 3u);
  const auto obj = cache.Lookup("/medals");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->body, "v3");
  EXPECT_EQ(obj->version, 3u);
  const auto s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.updates_in_place, 2u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(CacheTest, ReaderKeepsSnapshotAcrossUpdate) {
  // A reader that got the object before an update must keep the old body —
  // update-in-place cannot mutate a page under a concurrent response.
  ObjectCache cache;
  cache.Put("/event/1", "old");
  const auto snapshot = cache.Lookup("/event/1");
  cache.Put("/event/1", "new");
  EXPECT_EQ(snapshot->body, "old");
  EXPECT_EQ(cache.Lookup("/event/1")->body, "new");
}

TEST(CacheTest, Invalidate) {
  ObjectCache cache;
  cache.Put("/day/1", "x");
  EXPECT_TRUE(cache.Invalidate("/day/1"));
  EXPECT_FALSE(cache.Invalidate("/day/1"));
  EXPECT_EQ(cache.Lookup("/day/1"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheTest, InvalidatePrefix) {
  ObjectCache cache;
  cache.Put("/day/1", "a");
  cache.Put("/day/2", "b");
  cache.Put("/event/1", "c");
  cache.Put("frag:medals", "d");
  EXPECT_EQ(cache.InvalidatePrefix("/day/"), 2u);
  EXPECT_EQ(cache.Lookup("/day/1"), nullptr);
  EXPECT_EQ(cache.Lookup("/day/2"), nullptr);
  EXPECT_NE(cache.Lookup("/event/1"), nullptr);
  EXPECT_NE(cache.Lookup("frag:medals"), nullptr);
}

TEST(CacheTest, InvalidateEmptyPrefixClearsAll) {
  ObjectCache cache;
  cache.Put("a", "1");
  cache.Put("b", "2");
  EXPECT_EQ(cache.InvalidatePrefix(""), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, PeekDoesNotCountStats) {
  ObjectCache cache;
  cache.Put("/x", "1");
  EXPECT_NE(cache.Peek("/x"), nullptr);
  EXPECT_EQ(cache.Peek("/missing"), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(CacheTest, ContainsWithoutStats) {
  ObjectCache cache;
  cache.Put("/x", "1");
  EXPECT_TRUE(cache.Contains("/x"));
  EXPECT_FALSE(cache.Contains("/y"));
}

TEST(CacheTest, BytesTrackContent) {
  ObjectCache cache;
  EXPECT_EQ(cache.bytes(), 0u);
  cache.Put("/x", std::string(1000, 'a'));
  EXPECT_GT(cache.bytes(), 1000u);
  const size_t before = cache.bytes();
  cache.Put("/x", std::string(10, 'b'));  // shrink in place
  EXPECT_LT(cache.bytes(), before);
  cache.Invalidate("/x");
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(CacheTest, UnboundedNeverEvicts) {
  // The Olympic configuration: all dynamic pages fit in memory and "the
  // system never had to apply a cache replacement algorithm".
  ObjectCache cache;
  for (int i = 0; i < 5000; ++i) {
    cache.Put("/p" + std::to_string(i), std::string(100, 'x'));
  }
  EXPECT_EQ(cache.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(cache.Contains("/p" + std::to_string(i))) << i;
  }
}

TEST(CacheTest, StoredAtUsesClock) {
  SimClock clock(5 * kSecond);
  ObjectCache::Options options;
  options.clock = &clock;
  ObjectCache cache(options);
  cache.Put("/x", "1");
  EXPECT_EQ(cache.Peek("/x")->stored_at, 5 * kSecond);
  clock.Advance(kSecond);
  cache.Put("/x", "2");
  EXPECT_EQ(cache.Peek("/x")->stored_at, 6 * kSecond);
}

TEST(CacheTest, ManyShardsConsistent) {
  ObjectCache::Options options;
  options.shards = 64;
  ObjectCache cache(options);
  for (int i = 0; i < 1000; ++i) {
    cache.Put("/p" + std::to_string(i), std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    const auto obj = cache.Lookup("/p" + std::to_string(i));
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->body, std::to_string(i));
  }
  EXPECT_EQ(cache.size(), 1000u);
}

TEST(CacheTest, ConcurrentReadersAndWriter) {
  ObjectCache cache;
  for (int i = 0; i < 100; ++i) cache.Put("/p" + std::to_string(i), "seed");

  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t local = 0;
      for (int pass = 0; pass < 30; ++pass) {
        for (int i = 0; i < 100; ++i) {
          auto obj = cache.Lookup("/p" + std::to_string(i));
          if (obj != nullptr) {
            // A snapshot is always internally consistent.
            EXPECT_FALSE(obj->body.empty());
            ++local;
          }
        }
      }
      reads.fetch_add(local);
    });
  }
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      cache.Put("/p" + std::to_string(i), "v" + std::to_string(round));
    }
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(reads.load(), 4u * 30u * 100u);  // entries are never absent
  // Every entry ends at version 51 (seed + 50 updates).
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cache.Peek("/p" + std::to_string(i))->version, 51u);
  }
}

TEST(CacheTest, HitRateArithmetic) {
  CacheStats s;
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.0);
  s.hits = 99;
  s.misses = 1;
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.99);
}

// --- composition plans ------------------------------------------------------

// Builds the plan [ "A[" | frag:f | "]B" ] against a cached fragment.
std::vector<PlanChunk> HotPlan(ObjectCache& cache) {
  std::vector<PlanChunk> plan(3);
  plan[0].text = std::make_shared<const std::string>("A[");
  plan[1].fragment = std::make_shared<const std::string>("frag:f");
  plan[1].source = cache.Peek("frag:f");
  plan[1].fragment_version = plan[1].source->version;
  plan[2].text = std::make_shared<const std::string>("]B");
  return plan;
}

TEST(CacheTest, PutPlanComposesChunksAndHeaders) {
  ObjectCache cache;
  cache.Put("frag:f", "FRAG");
  EXPECT_EQ(cache.PutPlan("/page", HotPlan(cache)), 1u);

  const auto obj = cache.Lookup("/page");
  ASSERT_NE(obj, nullptr);
  EXPECT_TRUE(obj->is_plan());
  EXPECT_TRUE(obj->body.empty());          // plans hold no flat body
  EXPECT_EQ(obj->entity_size(), 8u);       // "A[FRAG]B"
  EXPECT_EQ(obj->Materialize(), "A[FRAG]B");
  EXPECT_NE(obj->entity_headers.find("Content-Length: 8"), std::string::npos);

  // One ref per non-empty chunk, concatenating to the entity, with the
  // fragment chunk aliasing the pinned snapshot (no byte copies).
  const auto refs = BodyChunkRefs(obj);
  ASSERT_EQ(refs.size(), 3u);
  std::string joined;
  for (const auto& ref : refs) joined += *ref;
  EXPECT_EQ(joined, "A[FRAG]B");
  EXPECT_EQ(refs[1].get(), &cache.Peek("frag:f")->body);
}

TEST(CacheTest, PatchPlanSwapsFragmentSnapshot) {
  ObjectCache cache;
  cache.Put("frag:f", "FRAG");
  cache.PutPlan("/page", HotPlan(cache));
  const auto before = cache.Peek("/page");

  cache.Put("frag:f", "FRESH!");
  const size_t fragment_chunk[] = {1};
  EXPECT_EQ(cache.PatchPlan("/page", before, fragment_chunk), 2u);

  const auto after = cache.Peek("/page");
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->version, before->version);
  EXPECT_EQ(after->Materialize(), "A[FRESH!]B");
  // Entity headers follow the new composed size without a re-render.
  EXPECT_EQ(after->entity_size(), 10u);
  EXPECT_NE(after->entity_headers.find("Content-Length: 10"),
            std::string::npos);
  EXPECT_EQ(cache.stats().plans_patched, 1u);
  // The old snapshot is immutable: readers holding it keep the old bytes.
  EXPECT_EQ(before->Materialize(), "A[FRAG]B");
}

TEST(CacheTest, PatchPlanRefusesAbsentFlatAndRetired) {
  ObjectCache cache;
  const size_t fragment_chunk[] = {1};
  // Absent key: nothing to patch.
  EXPECT_EQ(cache.PatchPlan("/nope", cache.Peek("/nope"), {}), 0u);
  // Flat entry: not a plan.
  cache.Put("/flat", "body");
  EXPECT_EQ(cache.PatchPlan("/flat", cache.Peek("/flat"), {}), 0u);
  // Plan whose fragment has been invalidated: the caller must re-render.
  cache.Put("frag:f", "FRAG");
  cache.PutPlan("/page", HotPlan(cache));
  cache.Invalidate("frag:f");
  EXPECT_EQ(cache.PatchPlan("/page", cache.Peek("/page"), fragment_chunk), 0u);
  EXPECT_EQ(cache.stats().plans_patched, 0u);
}

TEST(CacheTest, PatchPlanRepinsOnlyListedChunks) {
  // [ "<" | frag:a | "|" | frag:b | ">" ]: both fragments change, but the
  // patch lists only frag:a's chunk — frag:b keeps its pin, and the static
  // text is shared with the previous version rather than copied.
  ObjectCache cache;
  cache.Put("frag:a", "a1");
  cache.Put("frag:b", "b1");
  std::vector<PlanChunk> plan(5);
  for (size_t i : {0u, 2u, 4u}) {
    plan[i].text = std::make_shared<const std::string>(i == 0   ? "<"
                                                       : i == 2 ? "|"
                                                                : ">");
  }
  for (const auto& [i, key] :
       {std::pair<size_t, const char*>{1, "frag:a"}, {3, "frag:b"}}) {
    plan[i].fragment = std::make_shared<const std::string>(key);
    plan[i].source = cache.Peek(key);
    plan[i].fragment_version = plan[i].source->version;
  }
  cache.PutPlan("/page", std::move(plan));
  const auto before = cache.Peek("/page");
  cache.Put("frag:a", "a22");
  cache.Put("frag:b", "b22");

  const size_t only_a[] = {1};
  ASSERT_EQ(cache.PatchPlan("/page", before, only_a), 2u);
  const auto after = cache.Peek("/page");
  EXPECT_EQ(after->Materialize(), "<a22|b1>");
  EXPECT_EQ(after->plan[1].source, cache.Peek("frag:a"));
  EXPECT_EQ(after->plan[3].source, before->plan[3].source);
  EXPECT_EQ(after->plan[0].text, before->plan[0].text);  // same bytes object
  EXPECT_NE(after->entity_headers.find("Content-Length: 8"),
            std::string::npos);

  // A static chunk index, an out-of-range index, or a stale snapshot of
  // the entry aborts the patch without storing.
  const size_t static_chunk[] = {0};
  const size_t out_of_range[] = {9};
  EXPECT_EQ(cache.PatchPlan("/page", after, static_chunk), 0u);
  EXPECT_EQ(cache.PatchPlan("/page", after, out_of_range), 0u);
  EXPECT_EQ(cache.PatchPlan("/page", before, only_a), 0u);
  EXPECT_EQ(cache.Peek("/page"), after);
  EXPECT_EQ(cache.stats().plans_patched, 1u);
}

TEST(CacheTest, PlanChunkRefsOutliveEviction) {
  // Aliasing refs keep both the plan object and the pinned fragment
  // snapshot alive after the cache drops every entry.
  ObjectCache cache;
  cache.Put("frag:f", "FRAG");
  cache.PutPlan("/page", HotPlan(cache));
  const auto refs = BodyChunkRefs(cache.Lookup("/page"));
  cache.InvalidatePrefix("");
  std::string joined;
  for (const auto& ref : refs) joined += *ref;
  EXPECT_EQ(joined, "A[FRAG]B");
}

TEST(CacheTest, PlanBytesChargeTheFootprint) {
  // The cache accounts static chunk text for plan entries, so bounded
  // caches cannot be flooded by "weightless" plans.
  ObjectCache cache;
  cache.Put("frag:f", "FRAG");
  const size_t before = cache.bytes();
  cache.PutPlan("/page", HotPlan(cache));
  EXPECT_GT(cache.bytes(), before);
}

}  // namespace
}  // namespace nagano::cache
