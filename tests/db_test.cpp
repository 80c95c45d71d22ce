#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "db/database.h"
#include "pagegen/olympic.h"
#include "wal/wal.h"
#include "db_rows.h"

namespace nagano::db {
namespace {

Database MakeDb(DatabaseOptions options = {}) {
  return Database(std::move(options));
}

void CreateEventsTable(Database& db) {
  ASSERT_TRUE(db.CreateTable("events",
                             {{"event_id", ColumnType::kInt},
                              {"name", ColumnType::kString},
                              {"score", ColumnType::kDouble}})
                  .ok());
}

// Drains the cursor feed from a uniform per-shard position. The tests here
// run single-shard (unless stated), where shard seqnos equal global seqnos,
// so `after` reads as the familiar global watermark.
std::vector<ChangeRecord> ChangesAfter(const Database& db, uint64_t after,
                                       size_t limit = SIZE_MAX) {
  ChangeCursor cursor;
  cursor.positions.assign(db.shards(), after);
  auto batch = db.ReadChanges(cursor, limit);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return {};
  EXPECT_TRUE(batch.value().gap_shards.empty());
  return std::move(batch.value().records);
}

TEST(DbTest, CreateTableDuplicateFails) {
  Database db = MakeDb();
  EXPECT_TRUE(db.CreateTable("t", {{"k", ColumnType::kInt}}).ok());
  EXPECT_EQ(db.CreateTable("t", {{"k", ColumnType::kInt}}).code(),
            ErrorCode::kAlreadyExists);
}

TEST(DbTest, CreateTableValidation) {
  Database db = MakeDb();
  EXPECT_EQ(db.CreateTable("t", {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(db.CreateTable("t", {{"k", ColumnType::kInt}}, 5).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DbTest, OptionsValidation) {
  DatabaseOptions zero_shards;
  zero_shards.shards = 0;
  EXPECT_EQ(zero_shards.Validate().code(), ErrorCode::kInvalidArgument);

  DatabaseOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  ok.shards = 4;
  EXPECT_TRUE(ok.Validate().ok());

  // The single-stream wal convenience field is for unsharded stores only.
  wal::WriteAheadLog* fake = reinterpret_cast<wal::WriteAheadLog*>(0x1);
  DatabaseOptions sharded_single_wal;
  sharded_single_wal.shards = 2;
  sharded_single_wal.wal = fake;
  EXPECT_EQ(sharded_single_wal.Validate().code(), ErrorCode::kInvalidArgument);

  // shard_wals must carry exactly one stream per shard, none null.
  DatabaseOptions short_wals;
  short_wals.shards = 2;
  short_wals.shard_wals = {fake};
  EXPECT_EQ(short_wals.Validate().code(), ErrorCode::kInvalidArgument);
  DatabaseOptions null_wals;
  null_wals.shards = 2;
  null_wals.shard_wals = {fake, nullptr};
  EXPECT_EQ(null_wals.Validate().code(), ErrorCode::kInvalidArgument);
  DatabaseOptions both;
  both.wal = fake;
  both.shard_wals = {fake};
  EXPECT_EQ(both.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(DbTest, HasTableAndNames) {
  Database db = MakeDb();
  EXPECT_FALSE(db.HasTable("x"));
  ASSERT_TRUE(db.CreateTable("beta", {{"k", ColumnType::kInt}}).ok());
  ASSERT_TRUE(db.CreateTable("alpha", {{"k", ColumnType::kInt}}).ok());
  EXPECT_TRUE(db.HasTable("alpha"));
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(DbTest, UpsertAndGet) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(
      db.Upsert("events", {Value(int64_t(1)), Value(std::string("Ski Jump")),
                           Value(99.5)})
          .ok());
  auto row = CopyRow(db, "events", Value(int64_t(1)));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(std::get<std::string>(row.value()[1]), "Ski Jump");
  EXPECT_DOUBLE_EQ(std::get<double>(row.value()[2]), 99.5);
}

TEST(DbTest, GetMissing) {
  Database db = MakeDb();
  CreateEventsTable(db);
  EXPECT_FALSE(CopyRow(db, "events", Value(int64_t(7))));
  EXPECT_FALSE(CopyRow(db, "ghost", Value(int64_t(7))));
}

TEST(DbTest, UpsertArityAndTypeValidation) {
  Database db = MakeDb();
  CreateEventsTable(db);
  EXPECT_EQ(db.Upsert("events", {Value(int64_t(1))}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(db.Upsert("events", {Value(std::string("oops")),
                                 Value(std::string("x")), Value(1.0)})
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(DbTest, UpsertOverwrites) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("a")), Value(1.0)})
                  .ok());
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("b")), Value(2.0)})
                  .ok());
  EXPECT_EQ(db.RowCount("events"), 1u);
  EXPECT_EQ(std::get<std::string>(
                CopyRow(db, "events", Value(int64_t(1))).value()[1]),
            "b");
}

TEST(DbTest, DeleteRemovesRow) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("a")), Value(1.0)})
                  .ok());
  WriteBatch erase;
  erase.Delete("events", Value(int64_t(1)));
  EXPECT_TRUE(db.Commit(erase).ok());
  EXPECT_EQ(db.RowCount("events"), 0u);
  EXPECT_EQ(db.Commit(erase).code(), ErrorCode::kNotFound);
}

TEST(DbTest, ScanWithPredicate) {
  Database db = MakeDb();
  CreateEventsTable(db);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(db.Upsert("events",
                          {Value(int64_t(i)), Value(std::string("e")),
                           Value(double(i))})
                    .ok());
  }
  size_t matching = 0;
  const size_t visited = db.Read("events", RowFilter::All(), [&](const Row& r) {
    matching += std::get<double>(r[2]) > 7.0;
  });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(matching, 3u);
}

TEST(DbTest, ScanOrderIsKeyOrder) {
  Database db = MakeDb();
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kString}}).ok());
  for (const char* k : {"charlie", "alpha", "bravo"}) {
    ASSERT_TRUE(db.Upsert("t", {Value(std::string(k))}).ok());
  }
  const auto rows = CopyRows(db, "t");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(std::get<std::string>(rows[0][0]), "alpha");
  EXPECT_EQ(std::get<std::string>(rows[2][0]), "charlie");
}

TEST(DbTest, KeyStringEncodings) {
  EXPECT_EQ(KeyString(Value(int64_t(42))), "42");
  EXPECT_EQ(KeyString(Value(int64_t(-7))), "-7");
  EXPECT_EQ(KeyString(Value(std::string("JPN"))), "JPN");
  EXPECT_EQ(KeyString(Value(1.5)), "1.5");
}

TEST(DbTest, TypeMatches) {
  EXPECT_TRUE(TypeMatches(Value(int64_t(1)), ColumnType::kInt));
  EXPECT_FALSE(TypeMatches(Value(int64_t(1)), ColumnType::kDouble));
  EXPECT_TRUE(TypeMatches(Value(1.0), ColumnType::kDouble));
  EXPECT_TRUE(TypeMatches(Value(std::string("x")), ColumnType::kString));
}

// --- secondary indexes -----------------------------------------------------------

TEST(DbIndexTest, CreateIndexValidation) {
  Database db = MakeDb();
  CreateEventsTable(db);
  EXPECT_EQ(db.CreateIndex("ghost", "name").code(), ErrorCode::kNotFound);
  EXPECT_EQ(db.CreateIndex("events", "ghost").code(), ErrorCode::kNotFound);
  EXPECT_TRUE(db.CreateIndex("events", "name").ok());
  EXPECT_TRUE(db.CreateIndex("events", "name").ok());  // idempotent
  EXPECT_TRUE(db.HasIndex("events", "name"));
  EXPECT_FALSE(db.HasIndex("events", "score"));
}

TEST(DbIndexTest, IndexBuiltFromExistingRows) {
  Database db = MakeDb();
  CreateEventsTable(db);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(db.Upsert("events", {Value(int64_t(i)),
                                     Value(std::string(i % 2 ? "odd" : "even")),
                                     Value(0.0)})
                    .ok());
  }
  ASSERT_TRUE(db.CreateIndex("events", "name").ok());
  EXPECT_EQ(CopyRows(db, "events", 
                     RowFilter::Equals("name", Value(std::string("odd")))).size(), 3u);
  EXPECT_EQ(CopyRows(db, "events", 
                     RowFilter::Equals("name", Value(std::string("even")))).size(), 3u);
}

TEST(DbIndexTest, IndexMaintainedAcrossMutations) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.CreateIndex("events", "name").ok());
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("a")), Value(0.0)})
                  .ok());
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(2)),
                                   Value(std::string("a")), Value(0.0)})
                  .ok());
  EXPECT_EQ(CopyRows(db, "events", 
                     RowFilter::Equals("name", Value(std::string("a")))).size(), 2u);

  // Update row 1's name: it must move between index buckets.
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("b")), Value(0.0)})
                  .ok());
  EXPECT_EQ(CopyRows(db, "events", 
                     RowFilter::Equals("name", Value(std::string("a")))).size(), 1u);
  EXPECT_EQ(CopyRows(db, "events", 
                     RowFilter::Equals("name", Value(std::string("b")))).size(), 1u);

  WriteBatch erase;

  erase.Delete("events", Value(int64_t(2)));

  ASSERT_TRUE(db.Commit(std::move(erase)).ok());
  EXPECT_TRUE(CopyRows(db, "events", 
                     RowFilter::Equals("name", Value(std::string("a")))).empty());
}

TEST(DbIndexTest, LookupWithoutIndexFallsBackToScan) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("x")), Value(2.5)})
                  .ok());
  const auto rows =
      CopyRows(db, "events", RowFilter::Equals("score", Value(2.5)));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rows[0][0]), 1);
  EXPECT_TRUE(CopyRows(db, "events", 
                     RowFilter::Equals("ghost", Value(1.0))).empty());
}

TEST(DbIndexTest, LookupMatchesScanUnderRandomOps) {
  // Property: indexed Lookup agrees with a predicate Scan after arbitrary
  // upsert/delete interleavings.
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.CreateIndex("events", "name").ok());
  Rng rng(404);
  for (int step = 0; step < 800; ++step) {
    const int64_t key = static_cast<int64_t>(rng.NextBelow(30));
    if (rng.NextBool(0.75)) {
      ASSERT_TRUE(db.Upsert("events",
                            {Value(key),
                             Value("g" + std::to_string(rng.NextBelow(5))),
                             Value(0.0)})
                      .ok());
    } else {
      WriteBatch erase;
      erase.Delete("events", Value(key));
      (void)db.Commit(std::move(erase));
    }
    const std::string group = "g" + std::to_string(rng.NextBelow(5));
    const auto indexed =
        CopyRows(db, "events", RowFilter::Equals("name", Value(group)));
    auto scanned = CopyRows(db, "events");
    std::erase_if(scanned, [&](const Row& r) {
      return std::get<std::string>(r[1]) != group;
    });
    ASSERT_EQ(indexed.size(), scanned.size()) << "step " << step;
    for (size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(std::get<int64_t>(indexed[i][0]),
                std::get<int64_t>(scanned[i][0]));
    }
  }
}

TEST(DbIndexTest, ReplicatedApplyMaintainsReplicaIndexes) {
  Database master = MakeDb();
  CreateEventsTable(master);
  Database replica = MakeDb();
  CreateEventsTable(replica);
  ASSERT_TRUE(replica.CreateIndex("events", "name").ok());

  ASSERT_TRUE(master.Upsert("events", {Value(int64_t(1)),
                                       Value(std::string("a")), Value(0.0)})
                  .ok());
  ASSERT_TRUE(master.Upsert("events", {Value(int64_t(1)),
                                       Value(std::string("b")), Value(0.0)})
                  .ok());
  WriteBatch erase;
  erase.Delete("events", Value(int64_t(1)));
  ASSERT_TRUE(master.Commit(std::move(erase)).ok());
  for (const auto& change : ChangesAfter(master, 0)) {
    ASSERT_TRUE(replica.ApplyReplicated({&change, 1}).ok());
  }
  EXPECT_TRUE(CopyRows(replica, "events", 
                     RowFilter::Equals("name", Value(std::string("a")))).empty());
  EXPECT_TRUE(CopyRows(replica, "events", 
                     RowFilter::Equals("name", Value(std::string("b")))).empty());
}

// --- change log ----------------------------------------------------------------

TEST(DbChangeLogTest, SeqnosAreDense) {
  Database db = MakeDb();
  CreateEventsTable(db);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(db.Upsert("events", {Value(int64_t(i)),
                                     Value(std::string("e")), Value(0.0)})
                    .ok());
  }
  EXPECT_EQ(db.LastSeqno(), 5u);
  const auto changes = ChangesAfter(db, 0);
  ASSERT_EQ(changes.size(), 5u);
  for (size_t i = 0; i < changes.size(); ++i) {
    EXPECT_EQ(changes[i].seqno, i + 1);
    // Single shard: the per-shard numbering coincides with the global one.
    EXPECT_EQ(changes[i].shard, 0u);
    EXPECT_EQ(changes[i].shard_seqno, i + 1);
  }
}

TEST(DbChangeLogTest, ReadChangesFiltersAndLimits) {
  Database db = MakeDb();
  CreateEventsTable(db);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(db.Upsert("events", {Value(int64_t(i)),
                                     Value(std::string("e")), Value(0.0)})
                    .ok());
  }
  EXPECT_EQ(ChangesAfter(db, 7).size(), 3u);
  EXPECT_EQ(ChangesAfter(db, 7, 2).size(), 2u);
  EXPECT_EQ(ChangesAfter(db, 10).size(), 0u);
  EXPECT_EQ(ChangesAfter(db, 3)[0].seqno, 4u);

  // ChangeBatch::next resumes exactly where the previous read stopped.
  ChangeCursor cursor;
  auto first = db.ReadChanges(cursor, 4);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().records.size(), 4u);
  auto rest = db.ReadChanges(first.value().next);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest.value().records.size(), 6u);
  EXPECT_EQ(rest.value().records.front().seqno, 5u);
}

TEST(DbChangeLogTest, RecordsCarryRowImage) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(3)),
                                   Value(std::string("Luge")), Value(55.0)})
                  .ok());
  const auto changes = ChangesAfter(db, 0);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].op, ChangeOp::kInsert);
  EXPECT_EQ(changes[0].table, "events");
  EXPECT_EQ(changes[0].key, "3");
  ASSERT_EQ(changes[0].row.size(), 3u);
  EXPECT_EQ(std::get<std::string>(changes[0].row[1]), "Luge");
}

TEST(DbChangeLogTest, UpdateVsInsertOp) {
  Database db = MakeDb();
  CreateEventsTable(db);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("a")), Value(0.0)})
                  .ok());
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("b")), Value(0.0)})
                  .ok());
  WriteBatch erase;
  erase.Delete("events", Value(int64_t(1)));
  ASSERT_TRUE(db.Commit(std::move(erase)).ok());
  const auto changes = ChangesAfter(db, 0);
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0].op, ChangeOp::kInsert);
  EXPECT_EQ(changes[1].op, ChangeOp::kUpdate);
  EXPECT_EQ(changes[2].op, ChangeOp::kDelete);
  EXPECT_TRUE(changes[2].row.empty());
}

TEST(DbChangeLogTest, CommitTimesUseClock) {
  SimClock clock(10 * kSecond);
  DatabaseOptions options;
  options.clock = &clock;
  Database db = MakeDb(std::move(options));
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kInt}}).ok());
  ASSERT_TRUE(db.Upsert("t", {Value(int64_t(1))}).ok());
  clock.Advance(5 * kSecond);
  ASSERT_TRUE(db.Upsert("t", {Value(int64_t(2))}).ok());
  const auto changes = ChangesAfter(db, 0);
  EXPECT_EQ(changes[0].committed_at, 10 * kSecond);
  EXPECT_EQ(changes[1].committed_at, 15 * kSecond);
}

// --- atomic commits ------------------------------------------------------------

TEST(DbCommitTest, BatchTakesOneSeqnoRangeAndOneWakeup) {
  DatabaseOptions options;
  options.shards = 4;
  Database db = MakeDb(std::move(options));
  CreateEventsTable(db);
  int rings = 0;
  db.SetCommitWakeup([&] { ++rings; });
  WriteBatch batch;
  for (int i = 1; i <= 8; ++i) {
    batch.Upsert("events", {Value(int64_t(i)), Value(std::string("e")),
                            Value(double(i))});
  }
  batch.Upsert("events", {Value(int64_t(3)), Value(std::string("again")),
                          Value(0.0)});
  batch.Delete("events", Value(int64_t(4)));
  ASSERT_TRUE(db.Commit(std::move(batch)).ok());
  EXPECT_EQ(rings, 1);
  EXPECT_EQ(db.LastSeqno(), 10u);
  EXPECT_EQ(db.RowCount("events"), 7u);
  auto feed = db.ReadChanges(ChangeCursor{});
  ASSERT_TRUE(feed.ok());
  const auto& records = feed.value().records;
  ASSERT_EQ(records.size(), 10u);
  std::set<uint32_t> shards;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seqno, i + 1);
    EXPECT_EQ(records[i].batch_end, 10u);
    shards.insert(records[i].shard);
  }
  EXPECT_GT(shards.size(), 1u);
  // Later operations see earlier ones of the same batch.
  EXPECT_EQ(records[2].op, ChangeOp::kInsert);
  EXPECT_EQ(records[8].op, ChangeOp::kUpdate);
  EXPECT_EQ(records[9].op, ChangeOp::kDelete);
  EXPECT_EQ(CopyRow(db, "events", Value(int64_t(3))),
            (Row{Value(int64_t(3)), Value(std::string("again")), Value(0.0)}));
}

TEST(DbCommitTest, AnyInvalidOperationCommitsNothing) {
  Database db = MakeDb();
  CreateEventsTable(db);
  int rings = 0;
  db.SetCommitWakeup([&] { ++rings; });
  const Row good{Value(int64_t(1)), Value(std::string("a")), Value(0.0)};

  WriteBatch bad_row;
  bad_row.Upsert("events", good);
  bad_row.Upsert("events", {Value(int64_t(2))});
  EXPECT_EQ(db.Commit(std::move(bad_row)).code(), ErrorCode::kInvalidArgument);

  WriteBatch missing_row;
  missing_row.Upsert("events", good);
  missing_row.Delete("events", Value(int64_t(7)));
  EXPECT_EQ(db.Commit(std::move(missing_row)).code(), ErrorCode::kNotFound);

  WriteBatch missing_table;
  missing_table.Upsert("events", good);
  missing_table.Upsert("nope", good);
  EXPECT_EQ(db.Commit(std::move(missing_table)).code(), ErrorCode::kNotFound);

  EXPECT_EQ(db.LastSeqno(), 0u);
  EXPECT_EQ(db.RowCount("events"), 0u);
  EXPECT_EQ(rings, 0);
  EXPECT_TRUE(db.Commit(WriteBatch()).ok());
  EXPECT_EQ(db.LastSeqno(), 0u);

  // A row upserted then deleted in one batch is a valid pair.
  WriteBatch transient;
  transient.Upsert("events", good);
  transient.Delete("events", Value(int64_t(1)));
  ASSERT_TRUE(db.Commit(std::move(transient)).ok());
  EXPECT_EQ(db.LastSeqno(), 2u);
  EXPECT_EQ(db.RowCount("events"), 0u);
}

TEST(DbCommitTest, ReadChangesRoundsTheLimitUpToTheBatchEnd) {
  DatabaseOptions options;
  options.shards = 4;
  Database db = MakeDb(std::move(options));
  CreateEventsTable(db);
  const auto row = [](int i) {
    return Row{Value(int64_t(i)), Value(std::string("e")), Value(0.0)};
  };
  ASSERT_TRUE(db.Upsert("events", row(1)).ok());  // seqno 1
  WriteBatch batch;
  for (int i = 2; i <= 6; ++i) batch.Upsert("events", row(i));
  ASSERT_TRUE(db.Commit(std::move(batch)).ok());  // seqnos 2..6
  ASSERT_TRUE(db.Upsert("events", row(7)).ok());  // seqno 7

  const size_t want[] = {0, 1, 6, 6, 6, 6, 6, 7};
  for (size_t limit = 0; limit <= 7; ++limit) {
    auto page = db.ReadChanges(ChangeCursor{}, limit);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value().records.size(), want[limit]) << "limit " << limit;
  }
  // From inside the feed: one record asked, the whole batch returned, and
  // the next read resumes after it.
  auto first = db.ReadChanges(ChangeCursor{}, 1);
  ASSERT_TRUE(first.ok());
  auto second = db.ReadChanges(first.value().next, 1);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().records.size(), 5u);
  EXPECT_EQ(second.value().records.front().seqno, 2u);
  auto third = db.ReadChanges(second.value().next, 1);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third.value().records.size(), 1u);
  EXPECT_EQ(third.value().records.front().seqno, 7u);
}

// A scoring result is one commit: whatever limit the tail reads with, it
// gets all of CompleteEvent's records or none of them.
TEST(DbCommitTest, CompleteEventIsReadWholeAtEveryLimit) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    DatabaseOptions options;
    options.shards = shards;
    Database db = MakeDb(std::move(options));
    pagegen::OlympicConfig config;
    config.num_sports = 1;
    config.events_per_sport = 2;
    ASSERT_TRUE(pagegen::OlympicSite::Build(config, &db).ok());
    for (int rank = 1; rank <= 3; ++rank) {
      ASSERT_TRUE(pagegen::OlympicSite::RecordResult(&db, 1, rank, rank,
                                                     90.0 - rank)
                      .ok());
    }
    const uint64_t before = db.LastSeqno();
    ASSERT_TRUE(pagegen::OlympicSite::CompleteEvent(&db, 1).ok());
    ASSERT_EQ(db.LastSeqno(), before + 5);
    for (size_t limit = 1; limit <= 5; ++limit) {
      auto page = db.ReadChanges(db.CursorAtGlobal(before), limit);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ(page.value().records.size(), 5u)
          << shards << " shard(s), limit " << limit;
    }
  }
}

// --- commit wake-up -----------------------------------------------------------------

TEST(DbWakeupTest, RingsForUpsertDeleteAndReplicatedApply) {
  Database master = MakeDb();
  CreateEventsTable(master);
  Database replica = MakeDb();
  CreateEventsTable(replica);
  int master_rings = 0;
  int replica_rings = 0;
  master.SetCommitWakeup([&] { ++master_rings; });
  replica.SetCommitWakeup([&] { ++replica_rings; });

  ASSERT_TRUE(master.Upsert("events", {Value(int64_t(1)),
                                       Value(std::string("a")), Value(0.0)})
                  .ok());
  EXPECT_EQ(master_rings, 1);
  WriteBatch erase;
  erase.Delete("events", Value(int64_t(1)));
  ASSERT_TRUE(master.Commit(erase).ok());
  EXPECT_EQ(master_rings, 2);
  // A failed commit changes nothing and rings nothing.
  EXPECT_FALSE(master.Commit(erase).ok());
  EXPECT_EQ(master_rings, 2);

  for (const ChangeRecord& change : ChangesAfter(master, 0)) {
    ASSERT_TRUE(replica.ApplyReplicated({&change, 1}).ok());
  }
  EXPECT_EQ(replica_rings, 2);
}

TEST(DbWakeupTest, WokenReaderMayReadDatabase) {
  // The wake-up carries no data: the woken consumer reads the change log
  // and the rows itself, so no data lock may be held while it rings.
  Database db = MakeDb();
  CreateEventsTable(db);
  std::vector<uint64_t> seen;
  size_t observed_rows = 0;
  ChangeCursor cursor;
  db.SetCommitWakeup([&] {
    auto batch = db.ReadChanges(cursor);
    ASSERT_TRUE(batch.ok());
    for (const ChangeRecord& change : batch.value().records) {
      seen.push_back(change.seqno);
    }
    cursor = batch.value().next;
    observed_rows = CopyRows(db, "events").size();
  });
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("a")), Value(0.0)})
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1}));
  EXPECT_EQ(observed_rows, 1u);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(2)),
                                   Value(std::string("b")), Value(0.0)})
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(observed_rows, 2u);
}

TEST(DbWakeupTest, ClearedWakeupStopsRinging) {
  Database db = MakeDb();
  CreateEventsTable(db);
  int rings = 0;
  db.SetCommitWakeup([&] { ++rings; });
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(1)),
                                   Value(std::string("a")), Value(0.0)})
                  .ok());
  db.SetCommitWakeup(nullptr);
  ASSERT_TRUE(db.Upsert("events", {Value(int64_t(2)),
                                   Value(std::string("b")), Value(0.0)})
                  .ok());
  EXPECT_EQ(rings, 1);
}

TEST(DbWakeupTest, RingsForEveryShard) {
  DatabaseOptions options;
  options.shards = 4;
  Database db = MakeDb(std::move(options));
  CreateEventsTable(db);
  int rings = 0;
  db.SetCommitWakeup([&] { ++rings; });
  std::set<uint32_t> shards;
  for (int i = 1; i <= 32; ++i) {
    ASSERT_TRUE(db.Upsert("events", {Value(int64_t(i)),
                                     Value(std::string("e")), Value(0.0)})
                    .ok());
    shards.insert(ShardOf(std::to_string(i), 4));
  }
  EXPECT_EQ(rings, 32);
  EXPECT_EQ(shards.size(), 4u);
}

// --- replicated apply ---------------------------------------------------------------

TEST(DbReplicateTest, MirrorsMasterSeqnos) {
  Database master = MakeDb();
  CreateEventsTable(master);
  Database replica = MakeDb();
  CreateEventsTable(replica);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(master
                    .Upsert("events", {Value(int64_t(i)),
                                       Value(std::string("e")), Value(0.0)})
                    .ok());
  }
  for (const auto& change : ChangesAfter(master, 0)) {
    ASSERT_TRUE(replica.ApplyReplicated({&change, 1}).ok());
  }
  EXPECT_EQ(replica.LastSeqno(), master.LastSeqno());
  EXPECT_EQ(replica.RowCount("events"), 4u);
}

TEST(DbReplicateTest, RejectsGaps) {
  Database master = MakeDb();
  CreateEventsTable(master);
  Database replica = MakeDb();
  CreateEventsTable(replica);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(master
                    .Upsert("events", {Value(int64_t(i)),
                                       Value(std::string("e")), Value(0.0)})
                    .ok());
  }
  const auto changes = ChangesAfter(master, 0);
  ASSERT_TRUE(replica.ApplyReplicated({&changes[0], 1}).ok());
  // Skipping shard seqno 2 must be refused.
  EXPECT_EQ(replica.ApplyReplicated({&changes[2], 1}).code(), ErrorCode::kDataLoss);
  // Re-applying seqno 1 (duplicate) must also be refused.
  EXPECT_EQ(replica.ApplyReplicated({&changes[0], 1}).code(), ErrorCode::kDataLoss);
  ASSERT_TRUE(replica.ApplyReplicated({&changes[1], 1}).ok());
  ASSERT_TRUE(replica.ApplyReplicated({&changes[2], 1}).ok());
  EXPECT_EQ(replica.LastSeqno(), 3u);
}

TEST(DbReplicateTest, RejectsForeignShardLayout) {
  Database master = MakeDb();
  CreateEventsTable(master);
  ASSERT_TRUE(master
                  .Upsert("events", {Value(int64_t(1)),
                                     Value(std::string("e")), Value(0.0)})
                  .ok());
  auto change = ChangesAfter(master, 0).front();

  // A record claiming a shard this store doesn't have is a layout mismatch,
  // not a gap.
  Database replica = MakeDb();
  CreateEventsTable(replica);
  change.shard = 3;
  EXPECT_EQ(replica.ApplyReplicated({&change, 1}).code(),
            ErrorCode::kInvalidArgument);

  // So is a shard index that disagrees with the replica's own placement.
  DatabaseOptions sharded;
  sharded.shards = 4;
  Database sharded_replica = MakeDb(std::move(sharded));
  CreateEventsTable(sharded_replica);
  const uint32_t owner = ShardOf("1", 4);
  change.shard = (owner + 1) % 4;
  EXPECT_EQ(sharded_replica.ApplyReplicated({&change, 1}).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DbReplicateTest, ReplicatedDeleteApplies) {
  Database master = MakeDb();
  CreateEventsTable(master);
  Database replica = MakeDb();
  CreateEventsTable(replica);
  ASSERT_TRUE(master
                  .Upsert("events", {Value(int64_t(1)),
                                     Value(std::string("e")), Value(0.0)})
                  .ok());
  WriteBatch erase;
  erase.Delete("events", Value(int64_t(1)));
  ASSERT_TRUE(master.Commit(std::move(erase)).ok());
  for (const auto& change : ChangesAfter(master, 0)) {
    ASSERT_TRUE(replica.ApplyReplicated({&change, 1}).ok());
  }
  EXPECT_EQ(replica.RowCount("events"), 0u);
}

// --- change-log retention and recovery (ISSUE 4) ----------------------------

namespace {

// Self-cleaning mkdtemp directory for WAL-backed databases.
struct TempWalDir {
  TempWalDir() {
    char tmpl[] = "/tmp/nagano_db_wal_XXXXXX";
    const char* created = ::mkdtemp(tmpl);
    EXPECT_NE(created, nullptr);
    path = created;
  }
  ~TempWalDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

std::unique_ptr<wal::WriteAheadLog> OpenWal(const std::string& dir,
                                            metrics::MetricRegistry* registry) {
  wal::WalOptions options;
  options.dir = dir;
  options.metrics.registry = registry;
  auto log = wal::WriteAheadLog::Open(std::move(options));
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return std::move(log).value();
}

Database MakeWalDb(wal::WriteAheadLog* wal, metrics::MetricRegistry* registry,
                   size_t retention = 0) {
  DatabaseOptions options;
  options.metrics.registry = registry;
  options.wal = wal;
  options.change_log_retention = retention;
  return Database(std::move(options));
}

void UpsertN(Database& db, int from, int to) {
  for (int i = from; i <= to; ++i) {
    ASSERT_TRUE(db.Upsert("events", {Value(int64_t(i)),
                                     Value("e" + std::to_string(i)),
                                     Value(double(i))})
                    .ok());
  }
}

}  // namespace

TEST(DbRetentionTest, CheckpointTruncatesLogToRetention) {
  TempWalDir dir;
  metrics::MetricRegistry registry;
  auto wal = OpenWal(dir.path, &registry);
  Database db = MakeWalDb(wal.get(), &registry, /*retention=*/4);
  CreateEventsTable(db);
  UpsertN(db, 1, 10);  // seqnos 1..10
  EXPECT_EQ(db.log_head_seqno(), 1u);
  EXPECT_EQ(ChangesAfter(db, 0).size(), 10u);

  ASSERT_TRUE(db.Checkpoint().ok());
  // Retention 4 keeps seqnos 7..10; the head moves to 7.
  EXPECT_EQ(db.log_head_seqno(), 7u);
  EXPECT_EQ(ChangesAfter(db, 6).size(), 4u);
  EXPECT_EQ(ChangesAfter(db, 6).front().seqno, 7u);
}

TEST(DbRetentionTest, ReadChangesAroundTruncatedHead) {
  TempWalDir dir;
  metrics::MetricRegistry registry;
  auto wal = OpenWal(dir.path, &registry);
  Database db = MakeWalDb(wal.get(), &registry, /*retention=*/4);
  CreateEventsTable(db);
  UpsertN(db, 1, 10);
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_EQ(db.log_head_seqno(), 7u);
  EXPECT_EQ(db.RetainedCursor().at(0), 6u);

  // Exactly at the head (position = head-1 = 6): everything retained.
  auto at_head = db.ReadChanges(ChangeCursor{{6}});
  ASSERT_TRUE(at_head.ok());
  EXPECT_TRUE(at_head.value().gap_shards.empty());
  EXPECT_EQ(at_head.value().records.size(), 4u);
  EXPECT_EQ(at_head.value().records.front().seqno, 7u);

  // Before the head: the per-shard gap that drives replica resync — the
  // shard is reported in gap_shards with its position unmoved, not an
  // all-or-nothing error.
  for (uint64_t after : {0u, 3u, 5u}) {
    auto gap = db.ReadChanges(ChangeCursor{{after}});
    ASSERT_TRUE(gap.ok()) << "after=" << after;
    EXPECT_EQ(gap.value().gap_shards, (std::vector<uint32_t>{0}));
    EXPECT_TRUE(gap.value().records.empty());
    EXPECT_EQ(gap.value().next.at(0), after);  // position held for resync
  }
  // A consumer that only knows a global watermark re-parents through
  // CursorAtGlobal, which clamps to the retained head: the read yields the
  // retained suffix without a gap (the clamp already acknowledged the loss).
  auto clamped = db.ReadChanges(db.CursorAtGlobal(0));
  ASSERT_TRUE(clamped.ok());
  EXPECT_TRUE(clamped.value().gap_shards.empty());
  EXPECT_EQ(clamped.value().records.size(), 4u);
  EXPECT_EQ(clamped.value().records.front().seqno, 7u);

  // Past the end: empty, not a gap.
  auto past = db.ReadChanges(ChangeCursor{{10}});
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past.value().records.empty());
  EXPECT_TRUE(past.value().gap_shards.empty());
  auto way_past = db.ReadChanges(ChangeCursor{{1000}});
  ASSERT_TRUE(way_past.ok());
  EXPECT_TRUE(way_past.value().records.empty());
}

TEST(DbRetentionTest, UnboundedRetentionKeepsFullLog) {
  TempWalDir dir;
  metrics::MetricRegistry registry;
  auto wal = OpenWal(dir.path, &registry);
  Database db = MakeWalDb(wal.get(), &registry, /*retention=*/0);
  CreateEventsTable(db);
  UpsertN(db, 1, 10);
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(db.log_head_seqno(), 1u);
  EXPECT_EQ(ChangesAfter(db, 0).size(), 10u);
}

TEST(DbRecoverTest, SeqnoContinuityAcrossRecover) {
  TempWalDir dir;
  metrics::MetricRegistry registry;
  uint64_t last_before_crash = 0;
  {
    auto wal = OpenWal(dir.path, &registry);
    Database db = MakeWalDb(wal.get(), &registry, /*retention=*/4);
    CreateEventsTable(db);
    UpsertN(db, 1, 6);
    ASSERT_TRUE(db.Checkpoint().ok());
    UpsertN(db, 7, 9);  // post-checkpoint tail
    last_before_crash = db.LastSeqno();
    ASSERT_EQ(last_before_crash, 9u);
  }
  // "Crash": drop the database, reopen the WAL, recover a fresh one.
  metrics::MetricRegistry registry2;
  auto wal = OpenWal(dir.path, &registry2);
  Database recovered = MakeWalDb(wal.get(), &registry2);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_EQ(recovered.last_recovery().shards.size(), 1u);
  EXPECT_TRUE(recovered.last_recovery().healthy());
  EXPECT_EQ(recovered.last_recovery().shards[0].replayed, 3u);

  // Original seqnos preserved...
  EXPECT_EQ(recovered.LastSeqno(), last_before_crash);
  EXPECT_EQ(recovered.RowCount("events"), 9u);
  // ...the rebuilt in-memory log starts after the checkpoint...
  EXPECT_EQ(recovered.log_head_seqno(), 7u);
  EXPECT_EQ(ChangesAfter(recovered, 6).size(), 3u);
  auto gap = recovered.ReadChanges(ChangeCursor{{3}});
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(gap.value().gap_shards, (std::vector<uint32_t>{0}));
  // ...and new commits continue densely from the recovered tip.
  ASSERT_TRUE(recovered
                  .Upsert("events", {Value(int64_t(100)),
                                     Value(std::string("post")), Value(1.0)})
                  .ok());
  EXPECT_EQ(recovered.LastSeqno(), last_before_crash + 1);
  EXPECT_EQ(ChangesAfter(recovered, last_before_crash).front().seqno,
            last_before_crash + 1);
  // A replica that was at the master's pre-crash seqno can keep pulling.
  for (const auto& change : ChangesAfter(recovered, 6)) {
    EXPECT_GE(change.seqno, 7u);
  }
}

}  // namespace
}  // namespace nagano::db
