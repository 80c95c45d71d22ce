// Sharded in-memory relational store — the reproduction's stand-in for the
// DB2 results database of the Olympic site (ISSUE 8: partitioned storage
// tier behind a redesigned API).
//
// What DUP needs from the database layer (and what this provides):
//  * typed tables with primary keys and secondary indexes, read in place
//    through one visitor (point, index or full-table), used by the page
//    generators to render content;
//  * a shard-aware change feed: every commit carries a total-order seqno
//    plus a dense per-shard (shard, shard_seqno) pair, consumed through
//    per-shard cursors (ReadChanges) — the feed the trigger monitor tails
//    and the replication shipper pulls;
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
// that serializes mutations (assigning the total-order seqno). Writes were
// rare relative to reads at the Olympic site (tens of thousands of updates
// per day vs tens of millions of requests), so serialized commits are
// faithful; reads only take the shard locks they touch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
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
// numbering that cursors, replication and recovery actually track.
struct ChangeRecord {
  uint64_t seqno = 0;
  uint32_t shard = 0;
  uint64_t shard_seqno = 0;
  std::string table;
  std::string key;  // KeyString of the primary key
  ChangeOp op = ChangeOp::kInsert;
  Row row;          // empty for deletes
  TimeNs committed_at = 0;
};

// One page of the shard-aware change feed (ReadChanges). Records are merged
// across shards in total (global seqno) order; `next` resumes after the
// last record returned. Shards whose cursor position was truncated after a
// checkpoint are listed in `gap_shards` — their records are withheld and
// their cursor position left unmoved, so the consumer resyncs exactly those
// shards while the healthy ones keep flowing.
struct ChangeBatch {
  std::vector<ChangeRecord> records;
  ChangeCursor next;
  std::vector<uint32_t> gap_shards;
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

// --- WAL payload codec ---
// Every WAL payload starts with a kind tag so replay can rebuild schema and
// content in commit order (schema records carry the seqno watermark of the
// last data change and are appended to every shard stream, keeping each
// stream self-contained; data records carry their own seqno).
enum class WalRecordKind : uint8_t {
  kChange = 1,
  kCreateTable = 2,
  kCreateIndex = 3,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kChange;
  ChangeRecord change;             // kChange
  std::string table;               // kCreateTable / kCreateIndex
  std::vector<ColumnSpec> columns; // kCreateTable
  size_t key_column = 0;           // kCreateTable
  std::string column;              // kCreateIndex
};

std::string EncodeWalChange(const ChangeRecord& change);
std::string EncodeWalCreateTable(std::string_view table,
                                 const std::vector<ColumnSpec>& columns,
                                 size_t key_column);
std::string EncodeWalCreateIndex(std::string_view table,
                                 std::string_view column);
// kDataLoss on a malformed payload.
Result<WalRecord> DecodeWalRecord(std::string_view payload);

// Per-shard outcome of the last Recover() call. A shard whose WAL stream
// had a torn tail (or failed replay outright) carries kDataLoss here while
// the other shards come back healthy — the caller (WarmRestart) heals
// exactly that shard through per-shard replication instead of resyncing
// the world. Clean-boundary group-commit tail losses leave no per-shard
// evidence and surface only as RecoveryReport::missing_records.
struct ShardRecovery {
  Status status = Status::Ok();
  uint64_t replayed = 0;           // records replayed from the WAL tail
  uint64_t checkpoint_seqno = 0;   // global watermark of the image loaded
  uint64_t last_global_seqno = 0;  // highest global seqno this shard holds
  uint64_t shard_seqno = 0;        // dense per-shard watermark after recovery
  uint64_t torn_bytes = 0;         // bytes the WAL dropped from a torn tail
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
  // Index of `column` in `table`'s schema, or error.
  Result<size_t> ColumnIndex(std::string_view table,
                             std::string_view column) const;

  // --- mutation (goes through the change log) ---
  Status Upsert(std::string_view table, Row row);
  Status Delete(std::string_view table, const Value& key);

  // Applies a replicated change without assigning new local seqnos — used
  // by replicas so their logs mirror the master's numbering exactly.
  // Enforces per-shard density (change.shard_seqno must be the shard's
  // next), so each shard's stream is in-order and exactly-once while the
  // shards heal independently of one another.
  Status ApplyReplicated(const ChangeRecord& change);

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
  // thread pool (recovery_threads). Original seqnos are preserved:
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

  // The one fallible cursor API (ISSUE 8): records past `cursor`, merged
  // across shards in total order, up to `limit`. ChangeBatch::next resumes
  // after the last record returned; truncated shards are reported in
  // gap_shards (position unmoved) while healthy shards keep flowing.
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

  // Installs the commit wake-up (empty function = none): rung after every
  // Upsert, Delete and ApplyReplicated, with no data lock held, so it may
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
  struct ShardRecoveryScratch {
    std::map<std::string, TableSchema, std::less<>> schema;
    ShardRecovery result;
  };

  Status ValidateRow(const TableSchema& schema, const Row& row) const;
  // Appends one encoded record to shard `shard`'s WAL (no-op without one).
  // Called with the commit mutex held, *before* the mutation is applied — a
  // failed append fails the commit without consuming either seqno.
  Status WalAppend(uint32_t shard, uint64_t seqno, const std::string& payload);
  // Appends a DDL record to every shard stream (each stream replays alone).
  Status WalAppendAll(uint64_t seqno, const std::string& payload);
  // Applies a validated change to one shard's partition (rows + indexes)
  // and appends it to the shard log; callers hold the commit mutex and are
  // about to take (or hold) the shard's write lock.
  void ApplyAndLog(Shard& shard, const TableSchema& schema,
                   const ChangeRecord& change);
  // Rings the commit wake-up. Called with no data lock held.
  void RingCommitWakeup();
  static void ApplyChange(Partition& p, const ChangeRecord& change);
  // Index maintenance around a row mutation.
  static void UnindexRow(Partition& p, const RowEntry& entry);
  static void IndexRow(Partition& p, const RowEntry& entry);
  // One shard's checkpoint-load + tail-replay, run on the recovery pool.
  void RecoverShard(uint32_t index, ShardRecoveryScratch& scratch);

  const Clock* clock_;
  fault::FaultInjector* faults_;
  const size_t retention_;
  const size_t recovery_threads_;
  std::string instance_;  // fault-injection site name (== metrics label)

  // Lock order: commit_mutex_ -> schema_mutex_ -> shard mutexes (ascending
  // index). Readers may take schema + any subset of shard locks (ascending)
  // without the commit mutex.
  std::mutex commit_mutex_;
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
