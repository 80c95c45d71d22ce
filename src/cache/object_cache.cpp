#include "cache/object_cache.h"

#include <algorithm>
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
    n += chunk.text.size() + chunk.fragment.size() + sizeof(PlanChunk);
  }
  return n;
}

// The ready-to-send header prefix a hit appends to its response. Refreshed
// on every store so Content-Length and the version stamp always match the
// entity bytes they travel with.
void BuildEntityHeaders(CachedObject& obj) {
  obj.entity_headers = "Content-Length: ";
  obj.entity_headers += std::to_string(obj.entity_size());
  obj.entity_headers += "\r\nX-Nagano-Version: ";
  obj.entity_headers += std::to_string(obj.version);
  obj.entity_headers += "\r\n";
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
  auto it = shard.map.find(std::string(key));
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
  auto it = shard.map.find(std::string(key));
  return it == shard.map.end() ? nullptr : it->second;
}

std::shared_ptr<const CachedObject> ObjectCache::Peek(std::string_view key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(std::string(key));
  if (it == shard.map.end() || it->second->stale) return nullptr;
  return it->second;
}

uint64_t ObjectCache::Put(std::string_view key, std::string body) {
  auto obj = std::make_shared<CachedObject>();
  obj->body = std::move(body);
  return Store(key, std::move(obj));
}

uint64_t ObjectCache::PutPlan(std::string_view key,
                              std::vector<PlanChunk> plan) {
  auto obj = std::make_shared<CachedObject>();
  obj->plan = std::move(plan);
  obj->plan_bytes = SumPlanBytes(obj->plan);
  return Store(key, std::move(obj));
}

uint64_t ObjectCache::Store(std::string_view key,
                            std::shared_ptr<CachedObject> obj) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);

  std::string k(key);
  auto it = shard.map.find(k);
  uint64_t version = 1;
  if (it != shard.map.end()) {
    version = it->second->version + 1;
    const size_t old_footprint = EntryFootprint(k, *it->second);
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
    inserts_->Increment();
    entries_gauge_->Add(1.0);
  }

  obj->version = version;
  obj->stored_at = clock_->Now();
  BuildEntityHeaders(*obj);
  const size_t footprint = EntryFootprint(k, *obj);

  shard.map[std::move(k)] = std::move(obj);
  shard.bytes += footprint;
  bytes_gauge_->Add(static_cast<double>(footprint));
  return version;
}

uint64_t ObjectCache::PatchPlan(std::string_view key) {
  // Snapshot the current plan, then resolve fresh fragment pins with no
  // shard lock held — the fragments hash to arbitrary shards, and taking
  // two shard locks at once would need a global ordering.
  std::shared_ptr<const CachedObject> current = Peek(key);
  if (current == nullptr || !current->is_plan()) return 0;

  std::vector<std::shared_ptr<const CachedObject>> fresh(current->plan.size());
  for (size_t i = 0; i < current->plan.size(); ++i) {
    const PlanChunk& chunk = current->plan[i];
    if (!chunk.is_fragment()) continue;
    auto snapshot = Peek(chunk.fragment);
    // A retired (invalidated) or plan-shaped fragment means the
    // plan cannot be patched — the caller re-renders the whole page.
    if (snapshot == nullptr || snapshot->is_plan()) return 0;
    fresh[i] = std::move(snapshot);
  }

  auto obj = std::make_shared<CachedObject>();
  obj->plan = current->plan;
  for (size_t i = 0; i < obj->plan.size(); ++i) {
    if (fresh[i] == nullptr) continue;
    obj->plan[i].source = std::move(fresh[i]);
    obj->plan[i].fragment_version = obj->plan[i].source->version;
  }
  obj->plan_bytes = SumPlanBytes(obj->plan);
  obj->stored_at = clock_->Now();

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(std::string(key));
  // Compare object identity: if a concurrent Put/Invalidate replaced the
  // entry since the snapshot above, that writer wins and the patch aborts.
  if (it == shard.map.end() || it->second != current) return 0;

  obj->version = current->version + 1;
  BuildEntityHeaders(*obj);
  const size_t old_footprint = EntryFootprint(it->first, *current);
  const size_t new_footprint = EntryFootprint(it->first, *obj);
  shard.bytes += new_footprint;
  shard.bytes -= old_footprint;
  bytes_gauge_->Add(static_cast<double>(new_footprint) -
                    static_cast<double>(old_footprint));
  it->second = std::move(obj);
  updates_->Increment();
  plans_patched_->Increment();
  return current->version + 1;
}

uint64_t ObjectCache::UpdateInPlace(std::string_view key, std::string body) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(std::string(key));
  // Stale-retained counts as absent: a regeneration racing the
  // invalidation must not resurrect the entry as live.
  if (it == shard.map.end() || it->second->stale) return 0;

  const size_t old_footprint = EntryFootprint(it->first, *it->second);
  shard.bytes -= old_footprint;
  auto obj = std::make_shared<CachedObject>();
  obj->body = std::move(body);
  obj->version = it->second->version + 1;
  obj->stored_at = clock_->Now();
  BuildEntityHeaders(*obj);
  const uint64_t version = obj->version;
  const size_t new_footprint = EntryFootprint(it->first, *obj);
  shard.bytes += new_footprint;
  bytes_gauge_->Add(static_cast<double>(new_footprint) -
                    static_cast<double>(old_footprint));
  it->second = std::move(obj);
  updates_->Increment();
  return version;
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
  auto it = shard.map.find(std::string(key));
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

void ObjectCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    entries_gauge_->Add(
        -static_cast<double>(shard.map.size() - shard.stale));
    bytes_gauge_->Add(-static_cast<double>(shard.bytes));
    shard.map.clear();
    shard.bytes = 0;
    shard.stale = 0;
  }
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
