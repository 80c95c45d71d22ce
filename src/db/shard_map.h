// Shard placement for the partitioned database tier (ISSUE 8 tentpole).
//
// The database splits its tables into N independent shards; ShardOf decides
// which shard owns a primary key. Placement must be a pure function of
// (key, num_shards) and identical across processes: replicas mirror the
// master's per-shard numbering record by record, and recovery re-derives
// ownership from the key alone, so a hash that differed per process
// (std::hash is free to) would silently corrupt both. It is FNV-1a over the
// canonical key string.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace nagano::db {

// Shard owning `key` (its canonical KeyString): FNV-1a of the key bytes,
// modulo the shard count; always < num_shards (0 when num_shards <= 1). The
// table name is deliberately not hashed — co-locating a key's rows across
// tables keeps the Olympic generators' per-entity reads single-shard.
inline uint32_t ShardOf(std::string_view key, uint32_t num_shards) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return num_shards <= 1 ? 0 : static_cast<uint32_t>(h % num_shards);
}

// Position in the shard-aware change feed: positions[k] is the last
// consumed per-shard seqno of shard k (0 = from genesis). A cursor shorter
// than the shard count reads the missing shards from genesis, so a
// default-constructed cursor means "everything".
struct ChangeCursor {
  std::vector<uint64_t> positions;

  bool empty() const { return positions.empty(); }
  uint64_t at(size_t shard) const {
    return shard < positions.size() ? positions[shard] : 0;
  }
};

}  // namespace nagano::db
