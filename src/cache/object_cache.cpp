#include "cache/object_cache.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <iterator>

namespace nagano::cache {
namespace {

size_t EntryFootprint(const std::string& key, const CachedObject& obj) {
  size_t n = key.size() + obj.body.size() + obj.entity_headers.size() +
             sizeof(CachedObject);
  // Plans own their static text; fragment bytes are charged to the
  // fragment's own entry, so only the chunk bookkeeping is counted here.
  for (const PlanChunk& chunk : obj.plan) {
    n += (chunk.text ? chunk.text->size() : 0) +
         (chunk.fragment ? chunk.fragment->size() : 0) + sizeof(PlanChunk);
  }
  return n;
}

// The ready-to-send header prefix a hit appends to its response. Refreshed
// on every store so Content-Length and the version stamp always match the
// entity bytes they travel with.
void BuildEntityHeaders(CachedObject& obj) {
  char length[24], version[24];
  const std::string_view n(
      length, std::to_chars(length, std::end(length), obj.entity_size()).ptr -
                  length);
  const std::string_view v(
      version, std::to_chars(version, std::end(version), obj.version).ptr -
                   version);
  constexpr std::string_view kLength = "Content-Length: ";
  constexpr std::string_view kVersion = "\r\nX-Nagano-Version: ";
  std::string& h = obj.entity_headers;
  h.clear();
  h.reserve(kLength.size() + n.size() + kVersion.size() + v.size() + 2);
  h.append(kLength).append(n).append(kVersion).append(v).append("\r\n");
}

size_t SumPlanBytes(const std::vector<PlanChunk>& plan) {
  size_t n = 0;
  for (const PlanChunk& chunk : plan) n += chunk.bytes().size();
  return n;
}

}  // namespace

std::string CachedObject::Materialize() const {
  if (!is_plan()) return body;
  std::string out;
  out.reserve(plan_bytes);
  for (const PlanChunk& chunk : plan) out += chunk.bytes();
  return out;
}

Status ObjectCache::Options::Validate() const {
  if (shards == 0) {
    return InvalidArgumentError("ObjectCache::Options.shards must be >= 1");
  }
  return Status::Ok();
}

ObjectCache::ObjectCache(Options options)
    : retain_stale_(ValidateOrDie(options, "ObjectCache::Options")
                        .retain_stale),
      clock_(options.clock ? options.clock : &RealClock::Instance()),
      faults_(options.faults) {
  const size_t n = options.shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());

  const auto scope = metrics::Scope::Resolve(options.metrics, "cache");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  hits_ = scope.GetCounter("nagano_cache_hits_total", "cache lookups served");
  misses_ = scope.GetCounter("nagano_cache_misses_total", "cache lookups missed");
  inserts_ = scope.GetCounter("nagano_cache_inserts_total", "new entries stored");
  updates_ = scope.GetCounter("nagano_cache_updates_in_place_total",
                              "entries refreshed without invalidation");
  invalidations_ =
      scope.GetCounter("nagano_cache_invalidations_total", "entries dropped");
  plans_patched_ = scope.GetCounter(
      "nagano_cache_plans_patched_total",
      "composition plans refreshed by fragment swap (no page re-render)");
  entries_gauge_ = scope.GetGauge("nagano_cache_entries", "resident entries");
  bytes_gauge_ = scope.GetGauge("nagano_cache_bytes", "resident bytes");
}

ObjectCache::Shard& ObjectCache::ShardFor(std::string_view key) {
  return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

const ObjectCache::Shard& ObjectCache::ShardFor(std::string_view key) const {
  return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

std::shared_ptr<const CachedObject> ObjectCache::Lookup(std::string_view key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second->stale) {
    misses_->Increment();
    return nullptr;
  }
  hits_->Increment();
  return it->second;
}

Result<std::shared_ptr<const CachedObject>> ObjectCache::TryLookup(
    std::string_view key) {
  if (Status s = fault::Check(faults_, "cache", instance_, "lookup");
      !s.ok()) {
    return s;
  }
  if (auto hit = Lookup(key)) return hit;
  return NotFoundError("cache miss: " + std::string(key));
}

std::shared_ptr<const CachedObject> ObjectCache::LookupStale(
    std::string_view key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second;
}

std::shared_ptr<const CachedObject> ObjectCache::Peek(std::string_view key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second->stale) return nullptr;
  return it->second;
}

std::shared_ptr<const CachedObject> ObjectCache::Put(std::string_view key,
                                                     std::string body) {
  auto obj = std::make_shared<CachedObject>();
  obj->body = std::move(body);
  return Store(key, std::move(obj));
}

uint64_t ObjectCache::PutPlan(std::string_view key,
                              std::vector<PlanChunk> plan) {
  auto obj = std::make_shared<CachedObject>();
  obj->plan = std::move(plan);
  obj->plan_bytes = SumPlanBytes(obj->plan);
  return Store(key, std::move(obj))->version;
}

std::shared_ptr<const CachedObject> ObjectCache::Store(
    std::string_view key, std::shared_ptr<CachedObject> obj) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);

  auto it = shard.map.find(key);
  uint64_t version = 1;
  if (it != shard.map.end()) {
    version = it->second->version + 1;
    const size_t old_footprint = EntryFootprint(it->first, *it->second);
    shard.bytes -= old_footprint;
    bytes_gauge_->Add(-static_cast<double>(old_footprint));
    if (it->second->stale) {
      // Revival: the entry was logically absent, so this is an insert.
      --shard.stale;
      inserts_->Increment();
      entries_gauge_->Add(1.0);
    } else {
      updates_->Increment();
    }
  } else {
    it = shard.map.emplace(std::string(key), nullptr).first;
    inserts_->Increment();
    entries_gauge_->Add(1.0);
  }

  obj->version = version;
  obj->stored_at = clock_->Now();
  BuildEntityHeaders(*obj);
  const size_t footprint = EntryFootprint(it->first, *obj);

  it->second = std::move(obj);
  shard.bytes += footprint;
  bytes_gauge_->Add(static_cast<double>(footprint));
  return it->second;
}

uint64_t ObjectCache::PatchPlan(
    std::string_view key, const std::shared_ptr<const CachedObject>& current,
    std::span<const size_t> chunks) {
  if (current == nullptr || !current->is_plan()) return 0;
  // Resolve fresh fragment pins with no shard lock held — the fragments
  // hash to arbitrary shards, and taking two shard locks at once would need
  // a global ordering.
  auto obj = std::make_shared<CachedObject>();
  obj->plan = current->plan;  // pointer copies; the static text is shared
  obj->plan_bytes = current->plan_bytes;
  for (const size_t i : chunks) {
    if (i >= obj->plan.size() || !obj->plan[i].is_fragment()) return 0;
    PlanChunk& chunk = obj->plan[i];
    auto snapshot = Peek(*chunk.fragment);
    // A retired (invalidated) or plan-shaped fragment means the
    // plan cannot be patched — the caller re-renders the whole page.
    if (snapshot == nullptr || snapshot->is_plan()) return 0;
    obj->plan_bytes += snapshot->body.size();
    obj->plan_bytes -= chunk.source->body.size();
    chunk.fragment_version = snapshot->version;
    chunk.source = std::move(snapshot);
  }
  obj->stored_at = clock_->Now();

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  // Compare object identity: if a concurrent Put/Invalidate replaced the
  // entry since the caller's snapshot, that writer wins and the patch
  // aborts.
  if (it == shard.map.end() || it->second != current) return 0;

  obj->version = current->version + 1;
  BuildEntityHeaders(*obj);
  // Same chunks, same static text and keys: only the header line can change
  // the footprint.
  shard.bytes += obj->entity_headers.size();
  shard.bytes -= current->entity_headers.size();
  bytes_gauge_->Add(static_cast<double>(obj->entity_headers.size()) -
                    static_cast<double>(current->entity_headers.size()));
  it->second = std::move(obj);
  updates_->Increment();
  plans_patched_->Increment();
  return current->version + 1;
}

bool ObjectCache::InvalidateLocked(Shard& shard, Map::iterator it) {
  if (it->second->stale) return false;  // already downgraded
  if (retain_stale_) {
    // Downgrade to last-known-good: same body and stored_at, marked stale.
    auto stale_copy = std::make_shared<CachedObject>(*it->second);
    stale_copy->stale = true;
    it->second = std::move(stale_copy);
    ++shard.stale;
  } else {
    const size_t footprint = EntryFootprint(it->first, *it->second);
    shard.bytes -= footprint;
    bytes_gauge_->Add(-static_cast<double>(footprint));
    shard.map.erase(it);
  }
  invalidations_->Increment();
  entries_gauge_->Add(-1.0);
  return true;
}

bool ObjectCache::Invalidate(std::string_view key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  return InvalidateLocked(shard, it);
}

size_t ObjectCache::InvalidatePrefix(std::string_view prefix) {
  size_t removed = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      auto next = std::next(it);
      if (it->first.starts_with(prefix) && InvalidateLocked(shard, it)) {
        ++removed;
      }
      it = next;
    }
  }
  return removed;
}

bool ObjectCache::Contains(std::string_view key) const {
  return Peek(key) != nullptr;
}

CacheStats ObjectCache::stats() const {
  // Thin snapshot view over the registry cells; entries/bytes come from the
  // shard maps themselves so the legacy accessor stays exact.
  CacheStats total;
  total.hits = hits_->value();
  total.misses = misses_->value();
  total.inserts = inserts_->value();
  total.updates_in_place = updates_->value();
  total.invalidations = invalidations_->value();
  total.plans_patched = plans_patched_->value();
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.entries += shard.map.size() - shard.stale;
    total.stale_entries += shard.stale;
    total.bytes += shard.bytes;
  }
  return total;
}

size_t ObjectCache::size() const { return stats().entries; }
size_t ObjectCache::bytes() const { return stats().bytes; }

std::vector<std::pair<std::string, std::shared_ptr<const CachedObject>>>
ObjectCache::Snapshot() const {
  std::vector<std::pair<std::string, std::shared_ptr<const CachedObject>>> out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.reserve(out.size() + shard.map.size());
    for (const auto& [key, object] : shard.map) {
      if (object->stale) continue;  // consistency checks see live only
      out.emplace_back(key, object);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace nagano::cache
