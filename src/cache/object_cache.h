// In-memory dynamic-page cache — the paper's "cache" component into which
// the trigger monitor pushes updated pages and from which server programs
// answer requests.
//
// Design points taken from the paper:
//  * Lookups vastly outnumber writes; storage is sharded with per-shard
//    locks so serving threads rarely contend.
//  * Stale entries can be *updated in place* (the 1998 innovation) rather
//    than invalidated, so hot pages never miss.
//  * No replacement policy: at Olympic scale every page fits in memory —
//    "the system never had to apply a cache replacement algorithm". The
//    MEM bench checks that every prefetched object stays resident.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/string_hash.h"

namespace nagano::cache {

struct CachedObject;

// One piece of a page composition plan: either a static byte run, or a
// reference to an independently cached fragment. A fragment chunk pins the
// fragment's CachedObject snapshot, so the plan stays serveable even if the
// fragment entry is replaced or invalidated after the plan was
// stored/patched. Pinned fragment snapshots are always flat (never plans
// themselves), so bytes() is a single contiguous span. The static text and
// the fragment key are immutable and shared by every version of a plan, so
// a patch copies pointers, never page bytes.
struct PlanChunk {
  // Exactly one of `text` (static chunks) and `fragment` is non-null.
  std::shared_ptr<const std::string> text;      // static bytes
  std::shared_ptr<const std::string> fragment;  // fragment cache key
  std::shared_ptr<const CachedObject> source;   // pinned fragment snapshot
  uint64_t fragment_version = 0;  // source->version at pin time

  bool is_fragment() const { return fragment != nullptr; }
  const std::string& bytes() const;
};

// Immutable snapshot of a cached object. Returned by shared_ptr so a reader
// keeps a consistent body even while the trigger monitor replaces the entry.
//
// Two shapes share this struct:
//  * flat entries — `body` holds the bytes, `plan` is empty (fragments and
//    fragment-free pages);
//  * composition plans — `body` is empty and `plan` is the ordered chunk
//    list (static byte runs + pinned fragment refs) whose concatenation is
//    the page. A fragment swap replaces only the touched chunk refs and the
//    cheap recomputed entity headers; the static skeleton is never
//    re-rendered.
struct CachedObject {
  std::string body;
  // Composition plan for plan-shaped entries (see above). Empty ⇔ flat.
  std::vector<PlanChunk> plan;
  // Sum of plan chunk byte lengths, precomputed at store/patch time so
  // entity_size() and Content-Length recomputation are O(1).
  size_t plan_bytes = 0;
  // Ready-to-send entity-header lines for this body, each CRLF-terminated:
  // "Content-Length: N\r\nX-Nagano-Version: V\r\n". Built once per store
  // (Put/PutPlan/PatchPlan) so a cache hit assembles its HTTP
  // header block by appending this span — Vcache's complete-entity caching:
  // no per-request itoa, no per-request length math. The version line is
  // the ETag-style change stamp.
  std::string entity_headers;
  uint64_t version = 0;   // monotonically increasing per key
  TimeNs stored_at = 0;   // cache clock at insert/update time
  bool stale = false;     // invalidated but retained as last-known-good

  bool is_plan() const { return !plan.empty(); }
  // Entity byte length: body.size() for flat entries, summed chunk lengths
  // for plans — what Content-Length advertises either way.
  size_t entity_size() const { return is_plan() ? plan_bytes : body.size(); }
  // The full entity bytes as one string. Flat entries return a copy of
  // body; plans concatenate their chunks. The serve hot path never calls
  // this — it splices chunk refs — but include_body callers, digesting
  // benches, and the consistency audits do.
  std::string Materialize() const;
};

inline const std::string& PlanChunk::bytes() const {
  return is_fragment() ? source->body : *text;
}

// Aliasing views into a cached object: shared_ptrs that point at the body /
// entity-header strings but share the object's control block, so the serving
// path can hand just the bytes to the HTTP writer while keeping the whole
// object alive until the socket flush completes.
inline std::shared_ptr<const std::string> BodyRef(
    const std::shared_ptr<const CachedObject>& object) {
  if (object == nullptr) return nullptr;
  return std::shared_ptr<const std::string>(object, &object->body);
}
inline std::shared_ptr<const std::string> EntityHeadersRef(
    const std::shared_ptr<const CachedObject>& object) {
  if (object == nullptr) return nullptr;
  return std::shared_ptr<const std::string>(object, &object->entity_headers);
}

// Scatter-gather view of an entity: one aliasing ref per byte run, in page
// order. Flat entries yield a single BodyRef; plans yield one ref per chunk
// — static text aliases the plan object (which holds its text), fragment
// bytes alias the pinned fragment snapshot. Every ref shares a control
// block with a CachedObject, so handing the vector to the HTTP writer keeps
// all the bytes alive until the socket flush completes without copying any
// of them.
inline std::vector<std::shared_ptr<const std::string>> BodyChunkRefs(
    const std::shared_ptr<const CachedObject>& object) {
  std::vector<std::shared_ptr<const std::string>> refs;
  if (object == nullptr) return refs;
  if (!object->is_plan()) {
    if (!object->body.empty()) refs.push_back(BodyRef(object));
    return refs;
  }
  refs.reserve(object->plan.size());
  for (const PlanChunk& chunk : object->plan) {
    if (chunk.is_fragment()) {
      refs.emplace_back(chunk.source, &chunk.source->body);
    } else if (!chunk.text->empty()) {
      refs.emplace_back(object, chunk.text.get());
    }
  }
  return refs;
}

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t updates_in_place = 0;
  uint64_t invalidations = 0;
  // Composition plans refreshed by PatchPlan (fragment swap without page
  // re-render) — the fragment-first DUP fast path.
  uint64_t plans_patched = 0;
  size_t entries = 0;       // live entries; stale retentions not included
  size_t stale_entries = 0; // invalidated-but-retained last-known-good copies
  size_t bytes = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ObjectCache {
 public:
  struct Options : OptionsBase {
    size_t shards = 16;
    // Keep invalidated entries as stale last-known-good copies instead of
    // erasing them, so degraded serving (server/serving.h) has something to
    // fall back to when regeneration fails. Stale entries are invisible to
    // Lookup/Contains/size/Snapshot and reachable only via LookupStale.
    bool retain_stale = false;
    const Clock* clock = nullptr;  // defaults to RealClock
    // Consulted on TryLookup ({"cache", <instance>, "lookup"}). Null = off.
    fault::FaultInjector* faults = nullptr;
    // Registry + instance label for the nagano_cache_* metrics. An empty
    // instance gets a unique auto-assigned label so two caches (sites,
    // test fixtures) never alias each other's cells.
    metrics::Options metrics;

    Status Validate() const;
  };

  ObjectCache() : ObjectCache(Options()) {}
  explicit ObjectCache(Options options);

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  // nullptr on miss. Hit/miss counters are updated either way. Never
  // consults the fault injector and never returns stale entries; the
  // serving path uses TryLookup so it can distinguish miss from outage.
  std::shared_ptr<const CachedObject> Lookup(std::string_view key);

  // Fallible lookup: the value on a hit, kNotFound on a miss (including a
  // stale-retained entry — a miss is a stable answer, see common/result.h),
  // kUnavailable when the fault plan fails this lookup.
  Result<std::shared_ptr<const CachedObject>> TryLookup(std::string_view key);

  // Last-known-good read for degraded serving: returns the entry even when
  // it is stale-retained (check ->stale; age is now - stored_at). Bypasses
  // the fault injector — the whole point is to keep working during an
  // outage — and counts neither hit nor miss. nullptr when nothing at all
  // is retained for the key.
  std::shared_ptr<const CachedObject> LookupStale(std::string_view key) const;

  // Peek without touching statistics (used by monitoring and the trigger).
  // Like Lookup, does not see stale-retained entries.
  std::shared_ptr<const CachedObject> Peek(std::string_view key) const;

  // Insert or update-in-place. The version is bumped past the entry's
  // current version automatically; returns the stored snapshot, whose body
  // a caller can alias (BodyRef) instead of keeping a copy.
  std::shared_ptr<const CachedObject> Put(std::string_view key,
                                          std::string body);

  // Store a composition plan (ordered static chunks + pinned fragment
  // refs) under `key`. Same versioning semantics as Put; the
  // entity headers are computed from the summed chunk lengths. Fragment
  // chunks must carry a non-null flat `source` snapshot.
  uint64_t PutPlan(std::string_view key, std::vector<PlanChunk> plan);

  // Fragment swap: starting from `current` (the caller's snapshot of
  // `key`), re-pin the fragment chunks at the indices `chunks` to each
  // fragment's *current* cached snapshot, keep every other pin, recompute
  // Content-Length from the new chunk lengths, and bump the version — all
  // without touching the static skeleton. Returns the new version, or 0
  // (store nothing) when `current` is not a plan, an index is not a
  // fragment chunk, a listed fragment is no longer live (or is itself a
  // plan), or the entry was concurrently replaced since `current` was read
  // — the caller then falls back to a full re-render. This is the
  // fragment-first DUP update path: a scoreboard commit re-renders one
  // fragment and patches every embedding page for the cost of a few
  // pointer swaps and an itoa.
  uint64_t PatchPlan(std::string_view key,
                     const std::shared_ptr<const CachedObject>& current,
                     std::span<const size_t> chunks);

  // True if the key was present (and live). Under retain_stale the entry is
  // downgraded to a stale last-known-good copy instead of being erased.
  bool Invalidate(std::string_view key);

  // Invalidates every key starting with `prefix`; returns the count. This
  // is the 1996-Atlanta conservative bulk invalidation primitive.
  size_t InvalidatePrefix(std::string_view prefix);

  bool Contains(std::string_view key) const;
  CacheStats stats() const;
  size_t size() const;
  size_t bytes() const;

  // Key-sorted (key, object) snapshot across all shards. Shards are locked
  // one at a time, so the snapshot is per-shard consistent — call at
  // quiescence for an exact image. Used by the consistency audits.
  std::vector<std::pair<std::string, std::shared_ptr<const CachedObject>>>
  Snapshot() const;

 private:
  // Transparent hashing: lookups by string_view never build a key.
  using Map = std::unordered_map<std::string,
                                 std::shared_ptr<const CachedObject>,
                                 StringHash, std::equal_to<>>;

  struct Shard {
    mutable std::mutex mutex;
    Map map;
    size_t bytes = 0;
    size_t stale = 0;  // entries currently held as stale-retained
  };

  Shard& ShardFor(std::string_view key);
  const Shard& ShardFor(std::string_view key) const;
  // Shared insert/replace path behind Put and PutPlan: assigns the next
  // version, stamps headers and the clock, and does the footprint
  // bookkeeping.
  std::shared_ptr<const CachedObject> Store(std::string_view key,
                                            std::shared_ptr<CachedObject> obj);
  // Erase or (under retain_stale) downgrade one entry. Caller holds the
  // shard lock; returns true when the entry was live before the call.
  bool InvalidateLocked(Shard& shard, Map::iterator it);

  std::vector<std::unique_ptr<Shard>> shards_;
  bool retain_stale_;
  const Clock* clock_;
  fault::FaultInjector* faults_;
  std::string instance_;  // fault-injection site name (== metrics label)

  // Registry-owned cells; stats() is a thin snapshot view over them.
  // Increments happen under the owning shard's lock, so per-metric relaxed
  // atomics are plenty.
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* inserts_;
  metrics::Counter* updates_;
  metrics::Counter* invalidations_;
  metrics::Counter* plans_patched_;
  metrics::Gauge* entries_gauge_;
  metrics::Gauge* bytes_gauge_;
};

}  // namespace nagano::cache
