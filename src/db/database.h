// Sharded in-memory relational store — the reproduction's stand-in for the
// DB2 results database of the Olympic site (ISSUE 8: partitioned storage
// tier behind a redesigned API).
//
// What DUP needs from the database layer (and what this provides):
//  * typed tables with primary keys and secondary indexes, read in place
//    through one visitor (point, index or full-table), used by the page
//    generators to render content;
//  * atomic commits: one WriteBatch (one scoring result) commits as a
//    unit — one seqno range, one WAL frame per touched shard, one visible
//    step for readers and one commit wake-up;
//  * a shard-aware change feed: every record carries a total-order seqno
//    plus a dense per-shard (shard, shard_seqno) pair, consumed through
//    per-shard cursors (ReadChanges, which never splits a commit) — the
//    feed the trigger monitor tails and the replication shipper pulls;
//  * a data-free commit wake-up for the consumer that tails the feed.
//
// Sharding: rows are partitioned across N independent shards by ShardOf
// (FNV-1a of the primary key, shard_map.h). Each shard owns its own
// row/index partitions, its own dense change-log sequence, its own WAL
// stream (wal/shard-<k>/) and its own checkpoint image, so Recover() can
// replay all shards on a thread pool and a torn tail wedges one shard, not
// the store.
//
// Concurrency: one reader/writer lock per shard plus a global commit mutex
// that serializes commits (assigning the total-order seqno). A commit
// writes and syncs its WAL frames under the commit mutex alone and takes
// the touched shards' write locks only to apply, so readers never wait on
// a disk flush. Writes were rare relative to reads at the Olympic site
// (tens of thousands of updates per day vs tens of millions of requests),
// so serialized commits are faithful; reads only take the shard locks they
// touch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/string_hash.h"
#include "db/shard_map.h"
#include "wal/wal.h"

namespace nagano::db {

using Value = std::variant<int64_t, double, std::string>;

enum class ColumnType : uint8_t { kInt, kDouble, kString };

struct ColumnSpec {
  std::string name;
  ColumnType type;
};

using Row = std::vector<Value>;

// Which rows Database::Read visits.
struct RowFilter {
  enum class Kind : uint8_t { kAll, kKey, kEquals };
  Kind kind = Kind::kAll;
  std::string column;  // kEquals: the column compared
  Value value;         // kKey: the primary key; kEquals: the column value

  // Every row of the table.
  static RowFilter All() { return {}; }
  // The row whose primary key is `key` (at most one).
  static RowFilter Key(Value key) {
    return {Kind::kKey, {}, std::move(key)};
  }
  // The rows whose `column` equals `value`, through the column's secondary
  // index when it has one, else by scanning.
  static RowFilter Equals(std::string_view column, Value value) {
    return {Kind::kEquals, std::string(column), std::move(value)};
  }
};

// Called once per row a Read visits; the row is only valid during the call.
using RowVisitor = std::function<void(const Row&)>;

// Canonical string encoding of a primary-key value (used for row indexing
// and for naming ODG underlying-data nodes consistently).
std::string KeyString(const Value& v);

// True iff `v` holds the alternative matching `type`.
bool TypeMatches(const Value& v, ColumnType type);

enum class ChangeOp : uint8_t { kInsert, kUpdate, kDelete };

// One committed mutation. Carries the full row image so replicas can apply
// the log without reading back from the master. `seqno` is the total commit
// order across the store; (shard, shard_seqno) is the dense per-shard
// numbering that cursors, replication and recovery actually track. The
// records of one commit hold contiguous seqnos ending at `batch_end`.
struct ChangeRecord {
  uint64_t seqno = 0;
  uint32_t shard = 0;
  uint64_t shard_seqno = 0;
  uint64_t batch_end = 0;  // seqno of the last record of this commit
  std::string table;
  std::string key;  // KeyString of the primary key
  ChangeOp op = ChangeOp::kInsert;
  Row row;          // empty for deletes
  TimeNs committed_at = 0;
};

// One page of the shard-aware change feed (ReadChanges). Records are merged
// across shards in total (global seqno) order and end on a commit
// boundary; `next` resumes after the last record returned. Shards whose
// cursor position was truncated after a checkpoint are listed in
// `gap_shards` — their records are withheld and their cursor position
// left unmoved, so the consumer resyncs exactly those shards while the
// healthy ones keep flowing.
struct ChangeBatch {
  std::vector<ChangeRecord> records;
  ChangeCursor next;
  std::vector<uint32_t> gap_shards;
};

// One logical update — rows upserted and deleted as a unit (Database::
// Commit). Later operations see earlier ones: a row upserted twice commits
// two records, the second image last.
class WriteBatch {
 public:
  void Upsert(std::string_view table, Row row) {
    ops_.push_back({std::string(table), std::move(row), Value(), false});
  }
  void Delete(std::string_view table, Value key) {
    ops_.push_back({std::string(table), Row(), std::move(key), true});
  }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  friend class Database;
  struct Op {
    std::string table;
    Row row;    // upsert: the row image
    Value key;  // delete: the primary key
    bool erase = false;
  };
  std::vector<Op> ops_;
};

struct DatabaseOptions : OptionsBase {
  const Clock* clock = nullptr;  // defaults to RealClock
  // Consulted on mutations ({"db", <instance>, "commit"}: commit errors and
  // commit stalls charged to committed_at) and on ReadChanges
  // ({"db", <instance>, "changes"}). Null = injection off.
  fault::FaultInjector* faults = nullptr;
  metrics::Options metrics;
  // Number of independent shards rows are partitioned across.
  size_t shards = 1;
  // Durability, single-shard convenience form: one WAL stream for a
  // one-shard store. Mutually exclusive with shard_wals; requires
  // shards == 1. Not owned.
  wal::WriteAheadLog* wal = nullptr;
  // Durability, sharded form: one WAL stream per shard (wal/shard-<k>/ —
  // see wal::OpenShardWals). Size must equal `shards`. Not owned.
  std::vector<wal::WriteAheadLog*> shard_wals;
  // Upper bound on in-memory change-log records retained per shard after a
  // Checkpoint() (0 = unbounded, the pre-WAL behaviour). Reading a cursor
  // from before a shard's retained head reports that shard in
  // ChangeBatch::gap_shards — the signal that sends replication consumers
  // through resync and makes the trigger monitor drop its cache.
  size_t change_log_retention = 0;
  // Worker threads Recover() replays shards on. 0 = min(shards, hardware
  // concurrency); 1 = serial.
  size_t recovery_threads = 0;

  Status Validate() const;
};

// Per-shard outcome of the last Recover() call. A shard whose WAL stream
// had a torn tail (or failed replay outright), or lacks its part of a
// commit another shard holds, carries kDataLoss here while the other
// shards come back healthy — the caller (WarmRestart) heals exactly that
// shard through per-shard replication instead of resyncing the world.
// Other clean-boundary group-commit tail losses leave no per-shard
// evidence and surface only as RecoveryReport::missing_records.
struct ShardRecovery {
  Status status = Status::Ok();
  uint64_t replayed = 0;           // records replayed from the WAL tail
  uint64_t checkpoint_seqno = 0;   // global watermark of the image loaded
  uint64_t last_global_seqno = 0;  // highest global seqno this shard holds
  uint64_t shard_seqno = 0;        // dense per-shard watermark after recovery
  uint64_t torn_bytes = 0;         // bytes the WAL dropped from a torn tail
  // Durable records dropped because their commit was not durable on every
  // shard it touched (they are truncated from the stream).
  uint64_t dropped_records = 0;
  double replay_ms = 0.0;          // this shard's checkpoint-load + replay time
};

struct RecoveryReport {
  std::vector<ShardRecovery> shards;
  // Commits known to have happened (max global watermark observed) that no
  // shard recovered — the cross-shard loss signal for group-commit tails.
  uint64_t missing_records = 0;
  double total_ms = 0.0;

  // Every shard's stream was intact. Callers deciding whether catch-up is
  // needed must also consult missing_records: a clean group-commit tail
  // loss keeps every stream healthy yet still needs healing.
  bool healthy() const {
    for (const auto& s : shards) {
      if (!s.status.ok()) return false;
    }
    return true;
  }
};

class Database {
 public:
  explicit Database(DatabaseOptions options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- schema ---
  // key_column is an index into `columns`. Fails if the table exists.
  // Schema is global (every shard serves every table); the DDL record is
  // appended to every shard's WAL stream so each stream replays alone.
  Status CreateTable(std::string_view table, std::vector<ColumnSpec> columns,
                     size_t key_column = 0);
  bool HasTable(std::string_view table) const;
  std::vector<std::string> TableNames() const;

  // --- mutation (goes through the change log) ---
  // Commits `batch` as one unit: every row is validated first (any failure
  // commits nothing), the records take one contiguous seqno range, each
  // touched shard's WAL stream gets one frame and one sync, and readers,
  // the change feed and the commit wake-up see the whole batch at once.
  // An empty batch commits nothing. If a WAL append fails after another
  // shard's frame of the same batch reached its stream, the store refuses
  // every later commit (kFailedPrecondition) — the in-process stand-in for
  // dying mid-commit; reopen and Recover(), which drops the partial batch.
  Status Commit(WriteBatch batch);
  // A batch of one.
  Status Upsert(std::string_view table, Row row);

  // Applies one replicated commit (its records, in seqno order) without
  // assigning new local seqnos — used by replicas so their logs mirror the
  // master's numbering exactly — through the same commit path, so a
  // replica's readers and tail see whole commits too. Enforces per-shard
  // density (each record's shard_seqno must be its shard's next), so each
  // shard's stream is in-order and exactly-once; any violation applies
  // nothing.
  Status ApplyReplicated(std::span<const ChangeRecord> batch);

  // --- secondary indexes ---
  // Builds (and thereafter maintains) an index on `column`. Idempotent.
  // Page generators hit results-by-event / events-by-day constantly; the
  // production site's DB2 obviously had them.
  Status CreateIndex(std::string_view table, std::string_view column);
  bool HasIndex(std::string_view table, std::string_view column) const;

  // --- query ---
  // The one read: visits every row `filter` selects, in primary-key order
  // (merged across shards, so the order is independent of the shard
  // count), under the shard read locks — rows are read in place, never
  // copied; copy out whatever must outlive the call. Returns the number of
  // rows visited; an unknown table or column visits none. `visit` runs
  // under the locks and must not call back into the database.
  size_t Read(std::string_view table, const RowFilter& filter,
              const RowVisitor& visit) const;
  size_t RowCount(std::string_view table) const;

  // --- durability (requires a WAL per shard) ---
  // Writes one checkpoint image per shard (that shard's rows + the global
  // schema + both seqno watermarks), retires WAL segments fully covered,
  // and — when change_log_retention is set — truncates each shard's
  // in-memory change log to the newest `retention` records.
  Status Checkpoint();
  // Rebuilds an empty database (no tables, no commits) from each shard's
  // newest checkpoint plus its WAL tail, replaying shards in parallel on a
  // thread pool (recovery_threads). A commit is applied only if every
  // shard it touched holds its part durably; a partial one is dropped on
  // every shard and truncated from the streams, together with anything a
  // stream holds after it. Original seqnos are preserved:
  // LastSeqno() afterwards equals the last durably committed seqno and new
  // commits continue densely from it; per-shard seqnos likewise. The commit
  // wake-up does not ring during recovery.
  //
  // A shard that lost records (torn WAL tail, or provably missing commits)
  // comes back as far as its stream allows and is flagged kDataLoss in
  // last_recovery() — Recover() itself still returns Ok so the caller can
  // serve the healthy shards and heal the wounded one through replication.
  // Structural failures (no WAL, unreadable image format) fail the call.
  Status Recover();
  // Report of the last Recover() on this object. Empty before any call.
  const RecoveryReport& last_recovery() const { return recovery_report_; }

  // Forces an fsync of every attached WAL stream — the group-commit flush
  // batching appends across shards (streams opened with kGroupCommit defer
  // per-append fsyncs to this barrier, rotation, or checkpoints).
  Status Sync();

  // --- change feed ---
  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t LastSeqno() const;
  // Seqno of the oldest change guaranteed still held across every shard's
  // in-memory log (records below it may have been truncated after a
  // checkpoint). 1 until a retention-bounded checkpoint or a
  // checkpoint-based recovery moves it.
  uint64_t log_head_seqno() const;

  // The one fallible cursor API: records past `cursor`, merged across
  // shards in total order, up to `limit` — rounded up to the end of the
  // commit the limit falls in, so a commit is never split. The read sees
  // every shard at one instant. ChangeBatch::next resumes after the last
  // record returned; truncated shards are reported in gap_shards (position
  // unmoved) while healthy shards keep flowing.
  // Errors only when the read itself fails (the fault plan's
  // {"db", <instance>, "changes"} point) — kUnavailable, retry later.
  Result<ChangeBatch> ReadChanges(const ChangeCursor& cursor,
                                  size_t limit = SIZE_MAX) const;
  // Cursor positioned at everything applied so far (positions[k] = shard
  // k's dense watermark) — the seed for feed consumers starting "now".
  ChangeCursor AppliedCursor() const;
  // Cursor positioned just before the oldest record each shard still
  // retains — the farthest back a consumer can read without a gap. A
  // consumer whose cursor fell behind this has lost records for good and
  // clamps forward to it.
  ChangeCursor RetainedCursor() const;
  // Cursor positioned at the last record of each shard with global seqno
  // <= `seqno`, derived from the retained logs. Positions truncated out of
  // the log clamp to the shard's retained head (the consumer then observes
  // the gap at apply time). For re-parenting a consumer that only knows a
  // global watermark.
  ChangeCursor CursorAtGlobal(uint64_t seqno) const;

  // Installs the commit wake-up (empty function = none): rung once after
  // every Commit (Upsert too) and ApplyReplicated, with no data lock
  // held, so it may
  // read the database; it must not commit. It carries no data — the woken
  // consumer reads the records with ReadChanges. One slot; once this call
  // returns, the previous wake-up is no longer running or rung.
  void SetCommitWakeup(std::function<void()> wakeup);

 private:
  // Global schema for one table; rows live in per-shard partitions.
  struct TableSchema {
    std::vector<ColumnSpec> columns;
    size_t key_column = 0;
    std::vector<size_t> indexed_columns;  // sorted
  };

  // One shard's slice of one table.
  using RowMap = std::map<std::string, Row, std::less<>>;  // KeyString -> row
  using RowEntry = RowMap::value_type;
  struct Partition {
    Partition() = default;
    // Index entries point into `rows`: a move keeps the nodes, a copy
    // would not.
    Partition(Partition&&) = default;
    Partition& operator=(Partition&&) = default;
    Partition(const Partition&) = delete;
    Partition& operator=(const Partition&) = delete;

    RowMap rows;
    // column index -> (KeyString(column value) -> row entries). Entries
    // point at RowMap nodes, which stay put until the row is erased (rows
    // are unindexed first), so a lookup reaches its rows without a second
    // search by primary key.
    std::map<size_t, std::multimap<std::string, const RowEntry*, std::less<>>>
        indexes;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, Partition, StringHash, std::equal_to<>>
        tables;
    std::vector<ChangeRecord> log;    // ascending shard_seqno AND seqno
    uint64_t next_shard_seqno = 1;
    uint64_t log_head = 1;            // shard_seqno of log.front() (non-empty)
    wal::WriteAheadLog* wal = nullptr;
  };

  // Scratch state one shard's recovery worker builds in isolation; merged
  // serially after every worker joins.
  struct ShardRecoveryScratch;

  Status ValidateRow(const TableSchema& schema, const Row& row) const;
  // Appends a DDL record to every shard stream (each stream replays alone).
  Status WalAppendAll(uint64_t seqno, const std::string& payload);
  // The one commit path (Commit and ApplyReplicated): `records` are
  // validated and numbered, in seqno order; the caller holds the commit
  // mutex and the schema lock. Writes one WAL frame per touched shard, then
  // applies and logs every record under all the touched shards' write
  // locks and publishes the seqno.
  Status CommitRecords(std::vector<ChangeRecord> records);
  static Status WedgedError();
  // Rings the commit wake-up. Called with no data lock held.
  void RingCommitWakeup();
  static void ApplyChange(Partition& p, const ChangeRecord& change);
  // Index maintenance around a row mutation.
  static void UnindexRow(Partition& p, const RowEntry& entry);
  static void IndexRow(Partition& p, const RowEntry& entry);
  // Recovery, in three passes: each shard's checkpoint load and tail
  // decode (on the recovery pool); then, serially, every tail is cut
  // before its first batch with a part that is not durable (flagging the
  // shards that lost records); then each shard's replay of what it keeps,
  // truncating the rest from its stream (on the pool).
  void ReadShardTail(uint32_t index, ShardRecoveryScratch& scratch);
  static void CutPartialBatches(std::vector<ShardRecoveryScratch>& scratch);
  void ReplayShardTail(uint32_t index, ShardRecoveryScratch& scratch);

  const Clock* clock_;
  fault::FaultInjector* faults_;
  const size_t retention_;
  const size_t recovery_threads_;
  std::string instance_;  // fault-injection site name (== metrics label)

  // Lock order: commit_mutex_ -> schema_mutex_ -> shard mutexes (ascending
  // index). Readers may take schema + any subset of shard locks (ascending)
  // without the commit mutex.
  std::mutex commit_mutex_;
  // A batch reached some WAL streams but not all (commit_mutex_).
  bool wedged_ = false;
  mutable std::shared_mutex schema_mutex_;
  std::map<std::string, TableSchema, std::less<>> schemas_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_seqno_{1};
  // Smallest seqno such that every record >= it is still retained in some
  // shard log (advanced by retention truncation and recovery).
  std::atomic<uint64_t> global_log_head_{1};
  RecoveryReport recovery_report_;

  // Held while the wake-up runs, so SetCommitWakeup can retire it safely.
  std::mutex wakeup_mutex_;
  std::function<void()> commit_wakeup_;

  // Committed mutations (inserts/updates/deletes plus replicated applies).
  metrics::Counter* commits_;
  metrics::Counter* recovered_records_;
  metrics::Histogram* recovery_ms_;
};

}  // namespace nagano::db
