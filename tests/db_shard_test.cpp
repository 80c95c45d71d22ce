// Property suite for the sharded storage tier (ISSUE 8): per-shard dense
// change-log sequences that survive Checkpoint()/Recover(), parallel shard
// replay that is byte-identical to serial replay, and fault isolation — a
// torn tail on one shard's WAL stream wedges only that shard.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "db/database.h"
#include "db/shard_map.h"
#include "wal/wal.h"
#include "db_rows.h"

namespace nagano::db {
namespace {

constexpr size_t kShards = 4;

// Self-cleaning mkdtemp directory for the per-shard WAL trees.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/nagano_shard_XXXXXX";
    const char* created = ::mkdtemp(tmpl);
    EXPECT_NE(created, nullptr);
    path = created;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

wal::ShardWalSet OpenSet(const std::string& dir, size_t shards,
                         metrics::MetricRegistry* registry) {
  wal::WalOptions base;
  base.dir = dir;
  base.metrics.registry = registry;
  auto set = wal::OpenShardWals(std::move(base), shards);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

Database MakeShardedDb(const wal::ShardWalSet& set,
                       metrics::MetricRegistry* registry,
                       size_t recovery_threads = 0) {
  DatabaseOptions options;
  options.metrics.registry = registry;
  options.shards = set.wals.size();
  options.shard_wals = set.pointers();
  options.recovery_threads = recovery_threads;
  return Database(std::move(options));
}

void CreateEventsTable(Database& db) {
  ASSERT_TRUE(db.CreateTable("events",
                             {{"event_id", ColumnType::kInt},
                              {"name", ColumnType::kString},
                              {"score", ColumnType::kDouble}})
                  .ok());
}

void UpsertN(Database& db, int from, int to) {
  for (int i = from; i <= to; ++i) {
    ASSERT_TRUE(db.Upsert("events", {Value(int64_t(i)),
                                     Value("e" + std::to_string(i)),
                                     Value(double(i))})
                    .ok());
  }
}

uint32_t OwnerOf(int key) { return ShardOf(std::to_string(key), kShards); }

// Drops the final frame of a shard's newest WAL segment — the crash the
// paper's recovery story must survive: one stream's unsynced tail is lost
// mid-frame while its siblings are intact.
void TearShardTail(const std::string& base_dir, uint32_t shard) {
  const std::string dir = base_dir + "/shard-" + std::to_string(shard);
  std::filesystem::path victim;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".seg") continue;
    if (victim.empty() || entry.path().filename() > victim.filename()) {
      victim = entry.path();
    }
  }
  ASSERT_FALSE(victim.empty()) << "no segment in " << dir;
  const auto size = std::filesystem::file_size(victim);
  ASSERT_GT(size, 8u);
  ASSERT_EQ(::truncate(victim.c_str(), static_cast<off_t>(size - 8)), 0);
}

std::map<std::string, std::vector<Row>> Snapshot(const Database& db) {
  std::map<std::string, std::vector<Row>> tables;
  for (const auto& name : db.TableNames()) tables[name] = CopyRows(db, name);
  return tables;
}

// One shard's tail through the cursor feed: every other shard starts at its
// applied position, so only shard `k` contributes records past `after`.
ChangeBatch ShardTail(const Database& db, uint32_t k, uint64_t after) {
  ChangeCursor cursor = db.AppliedCursor();
  cursor.positions[k] = after;
  auto batch = db.ReadChanges(cursor);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return batch.ok() ? std::move(batch).value() : ChangeBatch{};
}

// --- shard map -------------------------------------------------------------

TEST(ShardMapTest, DeterministicAndInRange) {
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = std::to_string(i);
    const uint32_t shard = ShardOf(key, kShards);
    EXPECT_LT(shard, kShards);
    EXPECT_EQ(shard, ShardOf(key, kShards));  // stable
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), kShards);  // no empty shard over 1000 keys
  // Pinned FNV-1a placements: WAL streams and replicas written by earlier
  // builds must keep landing on the same shards.
  EXPECT_EQ(ShardOf("1", 4), 2u);
  EXPECT_EQ(ShardOf("42", 4), 1u);
  EXPECT_EQ(ShardOf("42", 7), 4u);
  EXPECT_EQ(ShardOf("42", 1), 0u);
  EXPECT_EQ(ShardOf("42", 0), 0u);
}

TEST(ShardMapTest, OpenShardWalsLaysOutPerShardStreams) {
  TempDir dir;
  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  ASSERT_EQ(set.wals.size(), kShards);
  EXPECT_EQ(set.pointers().size(), kShards);
  for (size_t k = 0; k < kShards; ++k) {
    EXPECT_NE(set.pointers()[k], nullptr);
    EXPECT_TRUE(std::filesystem::is_directory(dir.path + "/shard-" +
                                              std::to_string(k)));
  }
}

// --- cursor feed across shards ---------------------------------------------

TEST(DbShardTest, ReadChangesMergesShardsInGlobalOrder) {
  DatabaseOptions options;
  options.shards = kShards;
  Database db(std::move(options));
  CreateEventsTable(db);
  UpsertN(db, 1, 40);

  auto batch = db.ReadChanges(ChangeCursor{});
  ASSERT_TRUE(batch.ok());
  const auto& records = batch.value().records;
  ASSERT_EQ(records.size(), 40u);
  std::vector<uint64_t> per_shard_next(kShards, 1);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seqno, i + 1);  // global order, dense
    EXPECT_EQ(records[i].shard, OwnerOf(int(i + 1)));
    // Per-shard numbering is dense in commit order within each shard.
    EXPECT_EQ(records[i].shard_seqno, per_shard_next[records[i].shard]++);
  }

  // Paging through with a small limit replays the identical stream.
  std::vector<ChangeRecord> paged;
  ChangeCursor cursor;
  while (true) {
    auto page = db.ReadChanges(cursor, 7);
    ASSERT_TRUE(page.ok());
    if (page.value().records.empty()) break;
    for (auto& r : page.value().records) paged.push_back(std::move(r));
    cursor = std::move(page.value().next);
  }
  ASSERT_EQ(paged.size(), records.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].seqno, records[i].seqno);
  }

  // One shard's tail is dense in its own seqno space.
  for (uint32_t k = 0; k < kShards; ++k) {
    const ChangeBatch tail = ShardTail(db, k, 0);
    for (size_t i = 0; i < tail.records.size(); ++i) {
      EXPECT_EQ(tail.records[i].shard, k);
      EXPECT_EQ(tail.records[i].shard_seqno, i + 1);
    }
  }
}

// --- property (a): per-shard seqnos stay dense across Checkpoint/Recover ---

TEST(DbShardTest, PerShardSeqnosDenseAcrossCheckpointAndRecover) {
  TempDir dir;
  std::map<std::string, std::vector<Row>> reference;
  ChangeCursor applied_before;
  {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database db = MakeShardedDb(set, &registry);
    CreateEventsTable(db);
    ASSERT_TRUE(db.CreateIndex("events", "name").ok());
    UpsertN(db, 1, 40);
    ASSERT_TRUE(db.Checkpoint().ok());
    UpsertN(db, 41, 60);  // post-checkpoint tail, spread across shards
    WriteBatch erase;
    erase.Delete("events", Value(int64_t(3)));
    ASSERT_TRUE(db.Commit(std::move(erase)).ok());
    ASSERT_TRUE(db.Sync().ok());
    reference = Snapshot(db);
    applied_before = db.AppliedCursor();
    ASSERT_EQ(db.LastSeqno(), 61u);
  }

  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  Database recovered = MakeShardedDb(set, &registry, /*recovery_threads=*/4);
  ASSERT_TRUE(recovered.Recover().ok());
  const auto& report = recovered.last_recovery();
  ASSERT_EQ(report.shards.size(), kShards);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.missing_records, 0u);

  // The recovered store resumes the exact per-shard numbering.
  EXPECT_EQ(recovered.LastSeqno(), 61u);
  ASSERT_EQ(recovered.AppliedCursor().positions, applied_before.positions);
  EXPECT_EQ(Snapshot(recovered), reference);

  uint64_t replayed = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    const auto& shard = report.shards[k];
    replayed += shard.replayed;
    // The rebuilt in-memory tail (checkpoint watermark .. tip) is dense in
    // the shard's own seqno space and ascending in the global one.
    const uint64_t head_pos = recovered.RetainedCursor().at(k);
    ASSERT_EQ(head_pos, shard.shard_seqno - shard.replayed);
    const ChangeBatch tail = ShardTail(recovered, k, head_pos);
    EXPECT_TRUE(tail.gap_shards.empty());
    ASSERT_EQ(tail.records.size(), shard.replayed);
    uint64_t last_global = shard.checkpoint_seqno;
    for (size_t i = 0; i < tail.records.size(); ++i) {
      EXPECT_EQ(tail.records[i].shard_seqno, head_pos + i + 1);
      EXPECT_GT(tail.records[i].seqno, last_global);
      last_global = tail.records[i].seqno;
    }
    // Reading from before the retained head reports the shard as a gap,
    // not a silent skip.
    if (head_pos > 0) {
      const ChangeBatch lost = ShardTail(recovered, k, head_pos - 1);
      EXPECT_TRUE(lost.records.empty());
      EXPECT_EQ(lost.gap_shards, std::vector<uint32_t>{k});
    }
  }
  EXPECT_EQ(replayed, 21u);  // 20 upserts + 1 delete after the checkpoint

  // New commits continue densely in both seqno spaces.
  ASSERT_TRUE(recovered
                  .Upsert("events", {Value(int64_t(100)),
                                     Value(std::string("post")), Value(1.0)})
                  .ok());
  EXPECT_EQ(recovered.LastSeqno(), 62u);
  const uint32_t owner = OwnerOf(100);
  EXPECT_EQ(recovered.AppliedCursor().at(owner),
            applied_before.at(owner) + 1);
}

// --- property (b): replay order/parallelism never changes the result -------

TEST(DbShardTest, ParallelReplayIsByteIdenticalAcrossThreadCounts) {
  TempDir dir;
  std::map<std::string, std::vector<Row>> reference;
  {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database db = MakeShardedDb(set, &registry);
    CreateEventsTable(db);
    UpsertN(db, 1, 30);
    ASSERT_TRUE(db.Checkpoint().ok());
    UpsertN(db, 31, 80);
    for (int i = 2; i <= 80; i += 7) {
      WriteBatch erase;
      erase.Delete("events", Value(int64_t(i)));
      ASSERT_TRUE(db.Commit(std::move(erase)).ok());
    }
    reference = Snapshot(db);
  }

  // Serial replay, two-way, and full-width parallel replay must all
  // reconstruct the same bytes — shard streams are independent, so the
  // interleaving the thread pool happens to pick cannot matter.
  uint64_t last_seqno = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database recovered = MakeShardedDb(set, &registry, threads);
    ASSERT_TRUE(recovered.Recover().ok()) << "threads=" << threads;
    EXPECT_TRUE(recovered.last_recovery().healthy());
    EXPECT_EQ(Snapshot(recovered), reference) << "threads=" << threads;
    if (last_seqno == 0) {
      last_seqno = recovered.LastSeqno();
    } else {
      EXPECT_EQ(recovered.LastSeqno(), last_seqno);
    }
  }
}

// --- property (c): a torn tail wedges one shard, not the store -------------

TEST(DbShardTest, TornTailOnOneShardWedgesOnlyThatShard) {
  TempDir dir;
  uint32_t victim = kShards;  // a shard that does NOT own the last commit
  std::vector<int> keys_by_shard[kShards];
  {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database db = MakeShardedDb(set, &registry);
    CreateEventsTable(db);
    UpsertN(db, 1, 40);
    for (int i = 1; i <= 40; ++i) keys_by_shard[OwnerOf(i)].push_back(i);
    for (uint32_t k = 0; k < kShards; ++k) {
      ASSERT_GE(keys_by_shard[k].size(), 2u) << "degenerate key spread";
      if (k != OwnerOf(40)) victim = k;
    }
  }
  ASSERT_LT(victim, kShards);
  TearShardTail(dir.path, victim);

  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  Database recovered = MakeShardedDb(set, &registry, /*recovery_threads=*/4);
  // Partial recovery is still a successful recovery: the healthy shards
  // come up serving while the wounded one is flagged for healing.
  ASSERT_TRUE(recovered.Recover().ok());
  const auto& report = recovered.last_recovery();
  ASSERT_EQ(report.shards.size(), kShards);
  EXPECT_FALSE(report.healthy());
  // The tear dropped a record that other shards' watermarks prove existed.
  EXPECT_GE(report.missing_records, 1u);
  for (uint32_t k = 0; k < kShards; ++k) {
    if (k == victim) {
      EXPECT_EQ(report.shards[k].status.code(), ErrorCode::kDataLoss);
      EXPECT_GT(report.shards[k].torn_bytes, 0u);
    } else {
      EXPECT_TRUE(report.shards[k].status.ok()) << "shard " << k;
      EXPECT_EQ(report.shards[k].torn_bytes, 0u);
    }
  }

  // Healthy shards serve every one of their rows; the victim lost exactly
  // its final commit and nothing else.
  const int torn_key = keys_by_shard[victim].back();
  EXPECT_FALSE(CopyRow(recovered, "events", Value(int64_t(torn_key))));
  for (uint32_t k = 0; k < kShards; ++k) {
    for (const int key : keys_by_shard[k]) {
      if (key == torn_key) continue;
      EXPECT_TRUE(CopyRow(recovered, "events", Value(int64_t(key))))
          << "shard " << k << " key " << key;
    }
  }

  // The victim's feed restarts at its recovered watermark: a replication
  // consumer re-pulls the lost record from the master, exactly-once.
  const uint64_t victim_mark = recovered.AppliedCursor().at(victim);
  EXPECT_EQ(victim_mark, keys_by_shard[victim].size() - 1);
}

// --- atomic batches across shards -----------------------------------------

// Newest segment file of one shard's stream.
std::filesystem::path NewestSegment(const std::string& base_dir,
                                    uint32_t shard) {
  const std::string dir = base_dir + "/shard-" + std::to_string(shard);
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".seg") continue;
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  return newest;
}

// Upserts keys [from, to] as one batch; the range is wide enough that every
// shard holds part of it.
WriteBatch RowsBatch(int from, int to, const std::string& name) {
  WriteBatch batch;
  for (int i = from; i <= to; ++i) {
    batch.Upsert("events", {Value(int64_t(i)), Value(name), Value(double(i))});
  }
  return batch;
}

// A batch whose part on one shard never reached disk (that stream ends at a
// clean frame boundary before it) is dropped on every shard, and the shard
// missing its part is flagged; the dropped parts are truncated from their
// streams, so later commits recover normally.
TEST(DbShardTest, BatchMissingOneShardPartIsDroppedEverywhere) {
  TempDir dir;
  constexpr uint32_t kVictim = 2;
  std::map<std::string, std::vector<Row>> before_batch;
  uintmax_t victim_size_before = 0;
  {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database db = MakeShardedDb(set, &registry);
    CreateEventsTable(db);
    UpsertN(db, 1, 20);
    before_batch = Snapshot(db);
    victim_size_before =
        std::filesystem::file_size(NewestSegment(dir.path, kVictim));
    ASSERT_TRUE(db.Commit(RowsBatch(101, 116, "batch")).ok());
    const auto batch = db.ReadChanges(db.CursorAtGlobal(20));
    ASSERT_TRUE(batch.ok());
    std::set<uint32_t> touched;
    for (const auto& r : batch.value().records) touched.insert(r.shard);
    ASSERT_EQ(touched.size(), kShards) << "the batch must span every shard";
  }
  // The victim's stream loses its frame at a clean boundary: no torn bytes,
  // only the other parts' batch headers prove it existed.
  ASSERT_EQ(::truncate(NewestSegment(dir.path, kVictim).c_str(),
                       static_cast<off_t>(victim_size_before)),
            0);

  {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database recovered = MakeShardedDb(set, &registry, /*recovery_threads=*/4);
    ASSERT_TRUE(recovered.Recover().ok());
    const auto& report = recovered.last_recovery();
    ASSERT_EQ(report.shards.size(), kShards);
    for (uint32_t k = 0; k < kShards; ++k) {
      EXPECT_EQ(report.shards[k].torn_bytes, 0u);
      if (k == kVictim) {
        EXPECT_EQ(report.shards[k].status.code(), ErrorCode::kDataLoss);
        EXPECT_EQ(report.shards[k].dropped_records, 0u);
      } else {
        EXPECT_TRUE(report.shards[k].status.ok())
            << "shard " << k << ": " << report.shards[k].status.ToString();
        EXPECT_GT(report.shards[k].dropped_records, 0u) << "shard " << k;
      }
    }
    EXPECT_EQ(Snapshot(recovered), before_batch);
    EXPECT_EQ(recovered.LastSeqno(), 20u);
    // Commits continue from the pre-batch watermark.
    ASSERT_TRUE(recovered.Commit(RowsBatch(201, 216, "after")).ok());
    EXPECT_EQ(recovered.LastSeqno(), 36u);
  }

  // The dropped parts were truncated: a second recovery holds the new batch
  // on every shard and nothing of the dropped one.
  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  Database again = MakeShardedDb(set, &registry);
  ASSERT_TRUE(again.Recover().ok());
  EXPECT_TRUE(again.last_recovery().healthy());
  EXPECT_EQ(again.LastSeqno(), 36u);
  EXPECT_EQ(again.RowCount("events"), 36u);
  EXPECT_FALSE(CopyRow(again, "events", Value(int64_t(101))));
  EXPECT_TRUE(CopyRow(again, "events", Value(int64_t(216))));
}

// Dying mid-batch: the append on the last shard tears, so the other three
// hold their parts. The store refuses further commits until it is
// recovered, and recovery drops the batch on every shard.
TEST(DbShardTest, TornBatchWedgesCommitsUntilRecover) {
  TempDir dir;
  std::map<std::string, std::vector<Row>> before_batch;
  {
    metrics::MetricRegistry registry;
    fault::FaultPlan plan;
    fault::FaultRule tear;
    tear.subsystem = "wal";
    tear.site = "w/s3";
    tear.operation = "append";
    tear.kind = fault::FaultKind::kError;
    tear.error = ErrorCode::kUnavailable;
    tear.skip_first = 2 + 5;  // the DDL record, the index, then five rows
    tear.max_fires = 1;
    plan.rules.push_back(tear);
    fault::FaultInjector faults(plan);
    wal::WalOptions base;
    base.dir = dir.path;
    base.faults = &faults;
    base.metrics = {&registry, "w"};
    auto set = wal::OpenShardWals(std::move(base), kShards);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    Database db = MakeShardedDb(set.value(), &registry);
    CreateEventsTable(db);
    ASSERT_TRUE(db.CreateIndex("events", "name").ok());
    int on_victim = 0;
    for (int i = 1; on_victim < 5; ++i) {
      UpsertN(db, i, i);
      if (OwnerOf(i) == 3) ++on_victim;
    }
    before_batch = Snapshot(db);
    EXPECT_EQ(db.Commit(RowsBatch(101, 116, "batch")).code(),
              ErrorCode::kUnavailable);
    EXPECT_EQ(Snapshot(db), before_batch);
    EXPECT_EQ(db.Upsert("events", {Value(int64_t(900)), Value(std::string("x")),
                                   Value(0.0)})
                  .code(),
              ErrorCode::kFailedPrecondition);
  }
  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  Database recovered = MakeShardedDb(set, &registry);
  ASSERT_TRUE(recovered.Recover().ok());
  const auto& report = recovered.last_recovery();
  EXPECT_EQ(report.shards[3].status.code(), ErrorCode::kDataLoss);
  EXPECT_GT(report.shards[3].torn_bytes, 0u);
  for (uint32_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(report.shards[k].status.ok()) << "shard " << k;
    EXPECT_GT(report.shards[k].dropped_records, 0u) << "shard " << k;
  }
  EXPECT_EQ(Snapshot(recovered), before_batch);
  EXPECT_TRUE(recovered.HasIndex("events", "name"));
  ASSERT_TRUE(recovered.Commit(RowsBatch(101, 116, "retry")).ok());
}

// Recovery after a run of batched commits rebuilds exactly the live store:
// the same rows and the same change feed, record for record, with every
// batch still whole.
TEST(DbShardTest, RecoveryAfterBatchedCommitsMatchesLiveStore) {
  TempDir dir;
  std::map<std::string, std::vector<Row>> live_rows;
  std::vector<ChangeRecord> live_log;
  {
    metrics::MetricRegistry registry;
    auto set = OpenSet(dir.path, kShards, &registry);
    Database db = MakeShardedDb(set, &registry);
    CreateEventsTable(db);
    for (int round = 0; round < 6; ++round) {
      WriteBatch batch = RowsBatch(round * 3 + 1, round * 3 + 9,
                                   "round-" + std::to_string(round));
      if (round > 0) batch.Delete("events", Value(int64_t(round * 3 - 1)));
      ASSERT_TRUE(db.Commit(std::move(batch)).ok());
      UpsertN(db, 500 + round, 500 + round);
      if (round == 2) {
        ASSERT_TRUE(db.Checkpoint().ok());
      }
    }
    live_rows = Snapshot(db);
    live_log = db.ReadChanges(db.RetainedCursor()).value().records;
  }
  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  Database recovered = MakeShardedDb(set, &registry);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(recovered.last_recovery().healthy());
  EXPECT_EQ(Snapshot(recovered), live_rows);
  // The recovered log starts at the checkpoint; compare the common suffix.
  const auto log = recovered.ReadChanges(recovered.RetainedCursor()).value().records;
  ASSERT_FALSE(log.empty());
  ASSERT_LE(log.size(), live_log.size());
  const size_t offset = live_log.size() - log.size();
  for (size_t i = 0; i < log.size(); ++i) {
    const ChangeRecord& want = live_log[offset + i];
    EXPECT_EQ(log[i].seqno, want.seqno);
    EXPECT_EQ(log[i].shard, want.shard);
    EXPECT_EQ(log[i].shard_seqno, want.shard_seqno);
    EXPECT_EQ(log[i].batch_end, want.batch_end) << "seqno " << want.seqno;
    EXPECT_EQ(log[i].table, want.table);
    EXPECT_EQ(log[i].key, want.key);
    EXPECT_EQ(log[i].op, want.op);
    EXPECT_EQ(log[i].row, want.row);
    EXPECT_EQ(log[i].committed_at, want.committed_at);
  }
}

// --- group commit ----------------------------------------------------------

TEST(DbShardTest, GroupCommitSyncFlushesEveryShardStream) {
  TempDir dir;
  {
    metrics::MetricRegistry registry;
    wal::WalOptions base;
    base.dir = dir.path;
    base.metrics.registry = &registry;
    base.sync_policy = wal::SyncPolicy::kGroupCommit;
    base.group_commit_interval = kHour;  // never auto-fires in this test
    auto set = wal::OpenShardWals(std::move(base), kShards);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    Database db = MakeShardedDb(set.value(), &registry);
    CreateEventsTable(db);
    UpsertN(db, 1, 20);
    // The cross-shard group-commit barrier: one Sync() makes every shard's
    // appended tail durable.
    ASSERT_TRUE(db.Sync().ok());
    for (const auto& shard_wal : set.value().wals) {
      EXPECT_GT(shard_wal->stats().fsyncs, 0u);
    }
  }
  metrics::MetricRegistry registry;
  auto set = OpenSet(dir.path, kShards, &registry);
  Database recovered = MakeShardedDb(set, &registry);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(recovered.last_recovery().healthy());
  EXPECT_EQ(recovered.LastSeqno(), 20u);
  EXPECT_EQ(recovered.RowCount("events"), 20u);
}

}  // namespace
}  // namespace nagano::db
