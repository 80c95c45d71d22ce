// nagano::wal test suite (ISSUE 4).
//
// The centrepiece is the crash-point property test: a recorded log is
// truncated at every frame boundary AND at offsets inside every frame, then
// reopened and replayed — recovery must always equal the longest fully
// committed prefix, never a torn or reordered state. A database-level
// variant runs the same sweep through Database::Recover().
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/fault.h"
#include "db/database.h"
#include "wal/wal.h"
#include "db_rows.h"

namespace nagano::wal {
namespace {

// Self-cleaning mkdtemp directory.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/nagano_wal_XXXXXX";
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

size_t FileSize(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<size_t>(st.st_size);
}

// The single segment file of a one-segment log.
std::string OnlySegment(const std::string& dir) {
  std::string found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".seg")) {
      EXPECT_TRUE(found.empty()) << "expected exactly one segment";
      found = entry.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

WalOptions Opts(const std::string& dir) {
  WalOptions o;
  o.dir = dir;
  return o;
}

std::unique_ptr<WriteAheadLog> MustOpen(WalOptions o) {
  auto log = WriteAheadLog::Open(std::move(o));
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return std::move(log).value();
}

std::vector<std::string> ReplayPayloads(WriteAheadLog& log,
                                        uint64_t after_lsn = 0) {
  std::vector<std::string> out;
  Status s = log.Replay(after_lsn,
                        [&](uint64_t, uint64_t, std::string_view payload) {
                          out.emplace_back(payload);
                          return Status::Ok();
                        });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(Crc32cTest, KnownVectors) {
  // The canonical check value for CRC-32C (iSCSI, RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string a = "torn tails";
  const std::string b = " never replay";
  const uint32_t whole = Crc32c(a + b);
  const uint32_t split =
      Crc32cExtend(Crc32cExtend(0, a.data(), a.size()), b.data(), b.size());
  EXPECT_EQ(whole, split);
}

TEST(CodecTest, RoundTrip) {
  Encoder e;
  e.PutU8(7);
  e.PutU32(0xDEADBEEFu);
  e.PutU64(0x0123456789ABCDEFull);
  e.PutI64(-42);
  e.PutDouble(98.6);
  e.PutString("Nagano 1998");
  e.PutString("");

  Decoder d(e.str());
  EXPECT_EQ(d.GetU8(), 7u);
  EXPECT_EQ(d.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(d.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.GetI64(), -42);
  EXPECT_EQ(d.GetDouble(), 98.6);
  EXPECT_EQ(d.GetString(), "Nagano 1998");
  EXPECT_EQ(d.GetString(), "");
  EXPECT_TRUE(d.AtEnd());
}

TEST(CodecTest, ShortReadSticksFailed) {
  Encoder e;
  e.PutU32(5);
  Decoder d(e.str());
  EXPECT_EQ(d.GetU64(), 0u);  // only 4 bytes available
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.GetU32(), 0u);  // sticky
  EXPECT_FALSE(d.AtEnd());
}

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir;
  auto log = MustOpen(Opts(dir.path));
  ASSERT_TRUE(log->Append(1, "alpha").ok());
  ASSERT_TRUE(log->Append(2, "beta").ok());
  ASSERT_TRUE(log->Append(2, "ddl-watermark").ok());  // non-decreasing ok
  EXPECT_EQ(log->last_lsn(), 3u);
  EXPECT_EQ(log->last_seqno(), 2u);
  EXPECT_EQ(ReplayPayloads(*log),
            (std::vector<std::string>{"alpha", "beta", "ddl-watermark"}));
  EXPECT_EQ(ReplayPayloads(*log, 2),
            (std::vector<std::string>{"ddl-watermark"}));
  // Watermark regression is a caller bug.
  EXPECT_EQ(log->Append(1, "x").code(), ErrorCode::kInvalidArgument);
}

TEST(WalTest, ReopenContinuesNumbering) {
  TempDir dir;
  {
    auto log = MustOpen(Opts(dir.path));
    ASSERT_TRUE(log->Append(1, "one").ok());
    ASSERT_TRUE(log->Append(2, "two").ok());
  }
  auto log = MustOpen(Opts(dir.path));
  EXPECT_EQ(log->last_lsn(), 2u);
  EXPECT_EQ(log->last_seqno(), 2u);
  EXPECT_EQ(log->stats().torn_tails, 0u);
  ASSERT_TRUE(log->Append(3, "three").ok());
  EXPECT_EQ(ReplayPayloads(*log),
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST(WalTest, RotationSpansSegments) {
  TempDir dir;
  WalOptions o = Opts(dir.path);
  o.segment_bytes = 64;  // force a rotation every record or two
  auto log = MustOpen(std::move(o));
  std::vector<std::string> want;
  for (int i = 0; i < 20; ++i) {
    want.push_back("payload-" + std::to_string(i));
    ASSERT_TRUE(log->Append(static_cast<uint64_t>(i + 1), want.back()).ok());
  }
  EXPECT_GT(log->stats().segments_created, 1u);
  EXPECT_EQ(ReplayPayloads(*log), want);

  // Reopen across the same segments: same contents, numbering continues.
  log.reset();
  auto reopened = MustOpen(Opts(dir.path));
  EXPECT_EQ(ReplayPayloads(*reopened), want);
  EXPECT_EQ(reopened->last_lsn(), 20u);
}

TEST(WalTest, PerCommitSyncsEveryAppend) {
  TempDir dir;
  auto log = MustOpen(Opts(dir.path));  // default kPerCommit
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(log->Append(i, "x").ok());
  }
  EXPECT_EQ(log->stats().appends, 5u);
  EXPECT_GE(log->stats().fsyncs, 5u);
}

TEST(WalTest, GroupCommitSyncsOnInterval) {
  TempDir dir;
  SimClock clock;
  WalOptions o = Opts(dir.path);
  o.sync_policy = SyncPolicy::kGroupCommit;
  o.group_commit_interval = FromMillis(10);
  o.clock = &clock;
  auto log = MustOpen(std::move(o));
  const uint64_t base = log->stats().fsyncs;  // segment-create sync

  ASSERT_TRUE(log->Append(1, "a").ok());
  ASSERT_TRUE(log->Append(2, "b").ok());
  EXPECT_EQ(log->stats().fsyncs, base);  // interval not elapsed

  clock.Advance(FromMillis(10));
  ASSERT_TRUE(log->Append(3, "c").ok());
  EXPECT_EQ(log->stats().fsyncs, base + 1);  // group flushed

  ASSERT_TRUE(log->Append(4, "d").ok());
  EXPECT_EQ(log->stats().fsyncs, base + 1);
  ASSERT_TRUE(log->Sync().ok());  // explicit flush
  EXPECT_EQ(log->stats().fsyncs, base + 2);
}

TEST(WalTest, CheckpointRoundTripAndFallback) {
  TempDir dir;
  auto log = MustOpen(Opts(dir.path));
  EXPECT_EQ(log->ReadLatestCheckpoint().status().code(), ErrorCode::kNotFound);

  ASSERT_TRUE(log->Append(1, "one").ok());
  ASSERT_TRUE(log->WriteCheckpoint(1, "image-1").ok());
  ASSERT_TRUE(log->Append(2, "two").ok());
  ASSERT_TRUE(log->WriteCheckpoint(2, "image-2").ok());

  auto ckpt = log->ReadLatestCheckpoint();
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt.value().seqno, 2u);
  EXPECT_EQ(ckpt.value().lsn, 2u);
  EXPECT_EQ(ckpt.value().image, "image-2");

  // Corrupt the newest image: reads fall back to the older one.
  {
    const std::string newest = dir.path + "/ckpt-0000000000000002.img";
    FILE* f = std::fopen(newest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    std::fputc('!', f);
    std::fclose(f);
  }
  auto fallback = log->ReadLatestCheckpoint();
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback.value().seqno, 1u);
  EXPECT_EQ(fallback.value().image, "image-1");
}

TEST(WalTest, TruncateThroughRetiresSealedSegments) {
  TempDir dir;
  WalOptions o = Opts(dir.path);
  o.segment_bytes = 64;
  auto log = MustOpen(std::move(o));
  for (uint64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(log->Append(i, "payload-" + std::to_string(i)).ok());
  }
  ASSERT_GT(log->stats().segments_created, 2u);
  ASSERT_TRUE(log->WriteCheckpoint(20, "img").ok());
  auto deleted = log->TruncateThrough(20);
  ASSERT_TRUE(deleted.ok());
  EXPECT_GT(deleted.value(), 0u);
  EXPECT_GT(log->stats().segments_deleted, 0u);

  // The retired prefix is gone but the log reopens cleanly, numbering
  // intact, and replay past the checkpoint still works.
  log.reset();
  auto reopened = MustOpen(Opts(dir.path));
  EXPECT_EQ(reopened->last_lsn(), 20u);
  ASSERT_TRUE(reopened->Append(21, "after").ok());
  auto tail = ReplayPayloads(*reopened, 20);
  EXPECT_EQ(tail, (std::vector<std::string>{"after"}));
}

TEST(WalTest, InjectedAppendTearsAndWedges) {
  TempDir dir;
  metrics::MetricRegistry registry;
  fault::FaultPlan plan;
  plan.metrics.registry = &registry;
  fault::FaultRule tear;
  tear.subsystem = "wal";
  tear.site = "wal-under-test";
  tear.operation = "append";
  tear.skip_first = 2;
  tear.max_fires = 1;
  plan.rules.push_back(tear);
  fault::FaultInjector faults(plan);

  WalOptions o = Opts(dir.path);
  o.faults = &faults;
  o.metrics = {&registry, "wal-under-test"};
  auto log = MustOpen(std::move(o));
  ASSERT_TRUE(log->Append(1, "first").ok());
  ASSERT_TRUE(log->Append(2, "second").ok());
  // The third append dies mid-write: a torn frame lands on disk and the
  // log wedges, exactly like a process crash between write and ack.
  EXPECT_EQ(log->Append(3, "third").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(log->Append(4, "fourth").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(log->Sync().code(), ErrorCode::kFailedPrecondition);
  log.reset();

  // Reopen: the tear is detected and truncated; only acknowledged records
  // survive.
  WalOptions reopen = Opts(dir.path);
  reopen.metrics = {&registry, "wal-reopened"};
  auto recovered = MustOpen(std::move(reopen));
  EXPECT_EQ(recovered->stats().torn_tails, 1u);
  EXPECT_GT(recovered->torn_bytes_dropped(), 0u);
  EXPECT_EQ(ReplayPayloads(*recovered),
            (std::vector<std::string>{"first", "second"}));
  ASSERT_TRUE(recovered->Append(3, "third-retry").ok());
  EXPECT_EQ(recovered->last_lsn(), 3u);
}

// --- the crash-point property test ------------------------------------------

TEST(WalCrashPointTest, EveryTruncationRecoversLongestCommittedPrefix) {
  TempDir recorded;
  std::vector<std::string> payloads;
  std::vector<size_t> boundaries;  // segment size after magic, then each frame
  {
    auto log = MustOpen(Opts(recorded.path));
    boundaries.push_back(FileSize(OnlySegment(recorded.path)));  // magic only
    for (int i = 0; i < 12; ++i) {
      // Varying lengths so mid-frame offsets land in headers and payloads.
      payloads.push_back("record-" + std::to_string(i) +
                         std::string(static_cast<size_t>(i * 7 % 23), 'x'));
      ASSERT_TRUE(
          log->Append(static_cast<uint64_t>(i + 1), payloads.back()).ok());
      boundaries.push_back(FileSize(OnlySegment(recorded.path)));
    }
  }
  const std::string recorded_segment = OnlySegment(recorded.path);
  const std::string segment_name =
      std::filesystem::path(recorded_segment).filename().string();

  // Candidate crash offsets: every frame boundary, plus several offsets
  // strictly inside each frame (just past the boundary, inside the header,
  // and inside the payload).
  std::vector<size_t> cuts;
  for (size_t b : boundaries) cuts.push_back(b);
  for (size_t i = 1; i < boundaries.size(); ++i) {
    const size_t lo = boundaries[i - 1];
    const size_t hi = boundaries[i];
    for (size_t off : {lo + 1, lo + 12, lo + 24, lo + (hi - lo) / 2, hi - 1}) {
      if (off > lo && off < hi) cuts.push_back(off);
    }
  }

  for (size_t cut : cuts) {
    TempDir replayed;
    const std::string copy = replayed.path + "/" + segment_name;
    std::filesystem::copy_file(recorded_segment, copy);
    ASSERT_EQ(::truncate(copy.c_str(), static_cast<off_t>(cut)), 0);

    // Expected survivors: every record whose full frame fits below the cut.
    std::vector<std::string> want;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) want.push_back(payloads[i - 1]);
    }

    auto log = MustOpen(Opts(replayed.path));
    EXPECT_EQ(ReplayPayloads(*log), want) << "cut at offset " << cut;
    const bool exact_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    EXPECT_EQ(log->stats().torn_tails, exact_boundary ? 0u : 1u)
        << "cut at offset " << cut;
    // The reopened log must accept appends continuing the surviving prefix.
    ASSERT_TRUE(
        log->Append(static_cast<uint64_t>(want.size() + 1), "continue").ok())
        << "cut at offset " << cut;
    EXPECT_EQ(log->last_lsn(), want.size() + 1) << "cut at offset " << cut;
  }
}

// Same sweep, one layer up: a WAL-backed database is truncated at every
// boundary and recovered; the recovered state must equal a reference
// database that applied exactly the surviving prefix of operations.
TEST(WalCrashPointTest, DatabaseRecoversPrefixStateAtEveryBoundary) {
  using db::ColumnType;
  using db::Database;
  using db::DatabaseOptions;
  using db::Value;

  // The op script: schema, index, inserts, updates, a delete — one WAL
  // frame each.
  std::vector<std::function<Status(Database&)>> ops;
  ops.push_back([](Database& d) {
    return d.CreateTable("events", {{"event_id", ColumnType::kInt},
                                    {"name", ColumnType::kString},
                                    {"score", ColumnType::kDouble}});
  });
  ops.push_back([](Database& d) { return d.CreateIndex("events", "name"); });
  for (int i = 0; i < 6; ++i) {
    ops.push_back([i](Database& d) {
      return d.Upsert("events", {Value(int64_t(i)),
                                 Value("event-" + std::to_string(i % 3)),
                                 Value(90.0 + i)});
    });
  }
  ops.push_back([](Database& d) {
    return d.Upsert("events",
                    {Value(int64_t(1)), Value(std::string("updated")),
                     Value(123.0)});
  });
  ops.push_back([](Database& d) {
    db::WriteBatch erase;
    erase.Delete("events", Value(int64_t(2)));
    return d.Commit(std::move(erase));
  });

  // Record the log, noting the frame boundary after every op.
  TempDir recorded;
  std::vector<size_t> boundaries;
  {
    metrics::MetricRegistry registry;
    WalOptions wo = Opts(recorded.path);
    wo.metrics.registry = &registry;
    auto wal = MustOpen(std::move(wo));
    DatabaseOptions dbo;
    dbo.metrics.registry = &registry;
    dbo.wal = wal.get();
    Database recording(std::move(dbo));
    boundaries.push_back(FileSize(OnlySegment(recorded.path)));
    for (const auto& op : ops) {
      ASSERT_TRUE(op(recording).ok());
      boundaries.push_back(FileSize(OnlySegment(recorded.path)));
    }
  }
  const std::string recorded_segment = OnlySegment(recorded.path);
  const std::string segment_name =
      std::filesystem::path(recorded_segment).filename().string();

  std::vector<size_t> cuts;
  for (size_t b : boundaries) cuts.push_back(b);
  for (size_t i = 1; i < boundaries.size(); ++i) {
    const size_t mid = (boundaries[i - 1] + boundaries[i]) / 2;
    if (mid > boundaries[i - 1] && mid < boundaries[i]) cuts.push_back(mid);
  }

  for (size_t cut : cuts) {
    // How many whole ops survive this cut?
    size_t survivors = 0;
    while (survivors + 1 < boundaries.size() && boundaries[survivors + 1] <= cut) {
      ++survivors;
    }

    // Reference: a plain in-memory database that applied exactly that
    // prefix.
    metrics::MetricRegistry ref_registry;
    DatabaseOptions ref_options;
    ref_options.metrics.registry = &ref_registry;
    Database reference(std::move(ref_options));
    for (size_t i = 0; i < survivors; ++i) {
      ASSERT_TRUE(ops[i](reference).ok());
    }

    // Recovered: copy + truncate + Recover().
    TempDir replayed;
    const std::string copy = replayed.path + "/" + segment_name;
    std::filesystem::copy_file(recorded_segment, copy);
    ASSERT_EQ(::truncate(copy.c_str(), static_cast<off_t>(cut)), 0);
    metrics::MetricRegistry registry;
    WalOptions wo = Opts(replayed.path);
    wo.metrics.registry = &registry;
    auto wal = MustOpen(std::move(wo));
    DatabaseOptions dbo;
    dbo.metrics.registry = &registry;
    dbo.wal = wal.get();
    Database recovered(std::move(dbo));
    ASSERT_TRUE(recovered.Recover().ok()) << "cut at offset " << cut;

    // State equivalence: same seqnos, same tables, same rows, same change
    // log — never a torn or reordered record.
    EXPECT_EQ(recovered.LastSeqno(), reference.LastSeqno())
        << "cut at offset " << cut;
    EXPECT_EQ(recovered.TableNames(), reference.TableNames());
    for (const std::string& table : reference.TableNames()) {
      EXPECT_EQ(CopyRows(recovered, table), CopyRows(reference, table))
          << "table " << table << " cut at offset " << cut;
      EXPECT_EQ(recovered.HasIndex(table, "name"),
                reference.HasIndex(table, "name"));
    }
    const auto ReadFullLog = [&](const Database& database) {
      auto batch = database.ReadChanges(db::ChangeCursor{});
      EXPECT_TRUE(batch.ok()) << "cut at offset " << cut;
      return batch.ok() ? std::move(batch.value().records)
                        : std::vector<db::ChangeRecord>{};
    };
    const auto ref_log = ReadFullLog(reference);
    const auto rec_log = ReadFullLog(recovered);
    ASSERT_EQ(rec_log.size(), ref_log.size()) << "cut at offset " << cut;
    for (size_t i = 0; i < ref_log.size(); ++i) {
      EXPECT_EQ(rec_log[i].seqno, ref_log[i].seqno);
      EXPECT_EQ(rec_log[i].table, ref_log[i].table);
      EXPECT_EQ(rec_log[i].key, ref_log[i].key);
      EXPECT_EQ(rec_log[i].op, ref_log[i].op);
      EXPECT_EQ(rec_log[i].row, ref_log[i].row);
    }
    // And the recovered database keeps committing densely.
    ASSERT_TRUE(recovered.HasTable("events") || survivors == 0);
    if (recovered.HasTable("events")) {
      ASSERT_TRUE(recovered
                      .Upsert("events", {Value(int64_t(99)),
                                         Value(std::string("post-recovery")),
                                         Value(1.0)})
                      .ok());
      EXPECT_EQ(recovered.LastSeqno(), reference.LastSeqno() + 1);
    }
  }
}

// A multi-record commit is one frame: a crash at any byte inside it
// recovers the state before the whole batch, never part of it.
TEST(WalCrashPointTest, BatchFrameTornAnywhereIsDroppedWhole) {
  using db::ColumnType;
  using db::Database;
  using db::DatabaseOptions;
  using db::Row;
  using db::Value;
  const auto open_db = [](WriteAheadLog* wal,
                          metrics::MetricRegistry* registry) {
    DatabaseOptions dbo;
    dbo.metrics.registry = registry;
    dbo.wal = wal;
    return std::make_unique<Database>(std::move(dbo));
  };
  const auto row = [](int64_t id, const char* name) {
    return Row{Value(id), Value(std::string(name))};
  };

  TempDir recorded;
  size_t before = 0;
  size_t after = 0;
  {
    metrics::MetricRegistry registry;
    WalOptions wo = Opts(recorded.path);
    wo.metrics.registry = &registry;
    auto wal = MustOpen(std::move(wo));
    auto db = open_db(wal.get(), &registry);
    ASSERT_TRUE(db->CreateTable("events", {{"event_id", ColumnType::kInt},
                                           {"name", ColumnType::kString}})
                    .ok());
    ASSERT_TRUE(db->Upsert("events", row(1, "one")).ok());
    ASSERT_TRUE(db->Upsert("events", row(2, "two")).ok());
    before = FileSize(OnlySegment(recorded.path));
    db::WriteBatch batch;
    batch.Upsert("events", row(3, "three"));
    batch.Upsert("events", row(4, "four"));
    batch.Upsert("events", row(1, "one-updated"));
    batch.Delete("events", Value(int64_t(2)));
    ASSERT_TRUE(db->Commit(std::move(batch)).ok());
    after = FileSize(OnlySegment(recorded.path));
    EXPECT_EQ(wal->stats().appends, 4u);  // DDL, two rows, one batch frame
  }
  const std::string recorded_segment = OnlySegment(recorded.path);
  const std::string segment_name =
      std::filesystem::path(recorded_segment).filename().string();

  for (size_t cut = before; cut <= after; ++cut) {
    TempDir replayed;
    const std::string copy = replayed.path + "/" + segment_name;
    std::filesystem::copy_file(recorded_segment, copy);
    ASSERT_EQ(::truncate(copy.c_str(), static_cast<off_t>(cut)), 0);
    metrics::MetricRegistry registry;
    WalOptions wo = Opts(replayed.path);
    wo.metrics.registry = &registry;
    auto wal = MustOpen(std::move(wo));
    auto db = open_db(wal.get(), &registry);
    ASSERT_TRUE(db->Recover().ok()) << "cut at offset " << cut;
    const bool whole = cut == after;
    EXPECT_EQ(db->LastSeqno(), whole ? 6u : 2u) << "cut at offset " << cut;
    const std::vector<Row> want =
        whole ? std::vector<Row>{row(1, "one-updated"), row(3, "three"),
                                 row(4, "four")}
              : std::vector<Row>{row(1, "one"), row(2, "two")};
    EXPECT_EQ(CopyRows(*db, "events"), want)
        << "cut at offset " << cut;
    auto log = db->ReadChanges(db::ChangeCursor{});
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().records.size(), whole ? 6u : 2u);
    // Only a cut strictly inside the frame leaves torn bytes to flag.
    EXPECT_EQ(db->last_recovery().healthy(), cut == before || whole)
        << "cut at offset " << cut;
  }
}

TEST(WalDbTest, CheckpointPlusTailRecovery) {
  using db::ColumnType;
  using db::Database;
  using db::DatabaseOptions;
  using db::Value;
  TempDir dir;
  metrics::MetricRegistry registry;
  {
    WalOptions wo = Opts(dir.path);
    wo.metrics.registry = &registry;
    auto wal = MustOpen(std::move(wo));
    DatabaseOptions dbo;
    dbo.metrics.registry = &registry;
    dbo.wal = wal.get();
    Database master(std::move(dbo));
    ASSERT_TRUE(master
                    .CreateTable("events", {{"event_id", ColumnType::kInt},
                                            {"name", ColumnType::kString}})
                    .ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(master
                      .Upsert("events", {Value(int64_t(i)),
                                         Value("pre-" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(master.Checkpoint().ok());
    // Post-checkpoint tail.
    for (int i = 5; i < 8; ++i) {
      ASSERT_TRUE(master
                      .Upsert("events", {Value(int64_t(i)),
                                         Value("post-" + std::to_string(i))})
                      .ok());
    }
  }
  metrics::MetricRegistry registry2;
  WalOptions wo = Opts(dir.path);
  wo.metrics.registry = &registry2;
  auto wal = MustOpen(std::move(wo));
  DatabaseOptions dbo;
  dbo.metrics.registry = &registry2;
  dbo.metrics.instance = "recovered-db";
  dbo.wal = wal.get();
  Database recovered(std::move(dbo));
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.LastSeqno(), 8u);
  EXPECT_EQ(recovered.RowCount("events"), 8u);
  EXPECT_EQ(db::KeyString(CopyRow(recovered, "events", Value(int64_t(7)))
                              .value()[1]),
            "post-7");
  // The change log rebuilt from the tail starts after the checkpoint.
  EXPECT_EQ(recovered.log_head_seqno(), 6u);
  {
    auto tail = recovered.ReadChanges(db::ChangeCursor{{5}});
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(tail.value().records.size(), 3u);
  }
  // Recovery metrics: records replayed and a duration observation.
  auto* counter = registry2.GetCounter("nagano_db_recovered_records_total",
                                       {{"site", "recovered-db"}});
  EXPECT_EQ(counter->value(), 3u);
  auto* duration = registry2.GetHistogram("nagano_db_recovery_duration_ms",
                                          {{"site", "recovered-db"}});
  EXPECT_EQ(duration->count(), 1u);
}

TEST(WalDbTest, RecoverRequiresEmptyDatabaseAndWal) {
  using db::ColumnType;
  using db::Database;
  using db::DatabaseOptions;
  TempDir dir;
  metrics::MetricRegistry registry;
  Database no_wal(DatabaseOptions{});
  EXPECT_EQ(no_wal.Recover().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(no_wal.Checkpoint().code(), ErrorCode::kFailedPrecondition);

  WalOptions wo = Opts(dir.path);
  wo.metrics.registry = &registry;
  auto wal = MustOpen(std::move(wo));
  DatabaseOptions dbo;
  dbo.metrics.registry = &registry;
  dbo.wal = wal.get();
  Database used(std::move(dbo));
  ASSERT_TRUE(used.CreateTable("t", {{"k", ColumnType::kInt}}).ok());
  EXPECT_EQ(used.Recover().code(), ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nagano::wal
