#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/thread_pool.h"

namespace nagano::db {

std::string KeyString(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(*i));
    return buf;
  }
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

bool TypeMatches(const Value& v, ColumnType type) {
  switch (type) {
    case ColumnType::kInt: return std::holds_alternative<int64_t>(v);
    case ColumnType::kDouble: return std::holds_alternative<double>(v);
    case ColumnType::kString: return std::holds_alternative<std::string>(v);
  }
  return false;
}

Status DatabaseOptions::Validate() const {
  if (shards == 0) {
    return InvalidArgumentError("DatabaseOptions.shards must be >= 1");
  }
  if (wal != nullptr && !shard_wals.empty()) {
    return InvalidArgumentError(
        "DatabaseOptions: set wal or shard_wals, not both");
  }
  if (wal != nullptr && shards != 1) {
    return InvalidArgumentError(
        "DatabaseOptions: the single-stream wal field requires shards == 1; "
        "sharded stores take one stream per shard via shard_wals");
  }
  if (!shard_wals.empty()) {
    if (shard_wals.size() != shards) {
      return InvalidArgumentError(
          "DatabaseOptions: shard_wals.size() must equal shards");
    }
    for (const auto* w : shard_wals) {
      if (w == nullptr) {
        return InvalidArgumentError("DatabaseOptions: null entry in shard_wals");
      }
    }
  }
  return Status::Ok();
}

Database::Database(DatabaseOptions options)
    : clock_(options.clock ? options.clock : &RealClock::Instance()),
      faults_(options.faults),
      retention_(options.change_log_retention),
      recovery_threads_(options.recovery_threads) {
  ValidateOrDie(options, "DatabaseOptions");
  shards_.reserve(options.shards);
  for (size_t k = 0; k < options.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    if (!options.shard_wals.empty()) {
      shard->wal = options.shard_wals[k];
    } else if (options.wal != nullptr) {
      shard->wal = options.wal;  // shards == 1, enforced by Validate()
    }
    shards_.push_back(std::move(shard));
  }
  const auto scope = metrics::Scope::Resolve(options.metrics, "db");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  commits_ = scope.GetCounter("nagano_db_commits_total",
                              "mutations appended to the change log");
  recovered_records_ =
      scope.GetCounter("nagano_db_recovered_records_total",
                       "change records replayed from the WAL by Recover()");
  recovery_ms_ = scope.GetHistogram("nagano_db_recovery_duration_ms",
                                    "wall time spent rebuilding state in "
                                    "Recover() (checkpoint load + replay)");
}

// --- WAL payload codec ------------------------------------------------------

namespace {

// Every WAL payload starts with a kind tag so replay can rebuild schema and
// content in commit order (schema records carry the seqno watermark of the
// last data change and are appended to every shard stream, keeping each
// stream self-contained; data records carry their own seqno). A commit of
// one record is one kChange frame; any larger commit is one kBatch frame
// per touched shard, naming the commit's seqno range and every shard it
// touched so recovery can tell whether all of its parts are durable.
enum class WalRecordKind : uint8_t {
  kChange = 1,
  kCreateTable = 2,
  kCreateIndex = 3,
  kBatch = 4,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kChange;
  // kChange: one record; kBatch: this shard's records of the commit.
  std::vector<ChangeRecord> changes;
  uint64_t batch_first = 0;             // kBatch: the commit's seqno range
  uint64_t batch_last = 0;
  std::vector<uint32_t> batch_shards;   // kBatch: every shard it touched
  std::string table;               // kCreateTable / kCreateIndex
  std::vector<ColumnSpec> columns; // kCreateTable
  size_t key_column = 0;           // kCreateTable
  std::string column;              // kCreateIndex
};


void EncodeValue(wal::Encoder& e, const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    e.PutU8(0);
    e.PutI64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    e.PutU8(1);
    e.PutDouble(*d);
  } else {
    e.PutU8(2);
    e.PutString(std::get<std::string>(v));
  }
}

bool DecodeValue(wal::Decoder& d, Value* out) {
  switch (d.GetU8()) {
    case 0: *out = d.GetI64(); break;
    case 1: *out = d.GetDouble(); break;
    case 2: *out = d.GetString(); break;
    default: return false;
  }
  return d.ok();
}

void EncodeRow(wal::Encoder& e, const Row& row) {
  e.PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(e, v);
}

bool DecodeRow(wal::Decoder& d, Row* out) {
  const uint32_t arity = d.GetU32();
  if (!d.ok() || arity > 4096) return false;
  out->clear();
  out->reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    Value v;
    if (!DecodeValue(d, &v)) return false;
    out->push_back(std::move(v));
  }
  return true;
}


void EncodeChangeBody(wal::Encoder& e, const ChangeRecord& change) {
  e.PutU64(change.seqno);
  e.PutU32(change.shard);
  e.PutU64(change.shard_seqno);
  e.PutString(change.table);
  e.PutString(change.key);
  e.PutU8(static_cast<uint8_t>(change.op));
  e.PutI64(change.committed_at);
  EncodeRow(e, change.row);
}

bool DecodeChangeBody(wal::Decoder& d, ChangeRecord* change) {
  change->seqno = d.GetU64();
  change->shard = d.GetU32();
  change->shard_seqno = d.GetU64();
  change->table = d.GetString();
  change->key = d.GetString();
  const uint8_t op = d.GetU8();
  if (op > static_cast<uint8_t>(ChangeOp::kDelete)) return false;
  change->op = static_cast<ChangeOp>(op);
  change->committed_at = d.GetI64();
  return DecodeRow(d, &change->row);
}


std::string EncodeWalChange(const ChangeRecord& change) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kChange));
  EncodeChangeBody(e, change);
  return e.Take();
}

std::string EncodeWalBatch(uint64_t first, uint64_t last,
                           std::span<const uint32_t> shards,
                           std::span<const ChangeRecord* const> changes) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kBatch));
  e.PutU64(first);
  e.PutU64(last);
  e.PutU32(static_cast<uint32_t>(shards.size()));
  for (const uint32_t k : shards) e.PutU32(k);
  e.PutU32(static_cast<uint32_t>(changes.size()));
  for (const ChangeRecord* change : changes) EncodeChangeBody(e, *change);
  return e.Take();
}

std::string EncodeWalCreateTable(std::string_view table,
                                 const std::vector<ColumnSpec>& columns,
                                 size_t key_column) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kCreateTable));
  e.PutString(table);
  e.PutU32(static_cast<uint32_t>(key_column));
  e.PutU32(static_cast<uint32_t>(columns.size()));
  for (const ColumnSpec& col : columns) {
    e.PutString(col.name);
    e.PutU8(static_cast<uint8_t>(col.type));
  }
  return e.Take();
}

std::string EncodeWalCreateIndex(std::string_view table,
                                 std::string_view column) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kCreateIndex));
  e.PutString(table);
  e.PutString(column);
  return e.Take();
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  wal::Decoder d(payload);
  WalRecord rec;
  const uint8_t kind = d.GetU8();
  switch (kind) {
    case static_cast<uint8_t>(WalRecordKind::kChange): {
      rec.kind = WalRecordKind::kChange;
      ChangeRecord& change = rec.changes.emplace_back();
      if (!DecodeChangeBody(d, &change)) {
        return DataLossError("DecodeWalRecord: bad change");
      }
      change.batch_end = change.seqno;
      break;
    }
    case static_cast<uint8_t>(WalRecordKind::kBatch): {
      rec.kind = WalRecordKind::kBatch;
      rec.batch_first = d.GetU64();
      rec.batch_last = d.GetU64();
      const uint32_t nshards = d.GetU32();
      if (!d.ok() || nshards == 0 || nshards > 4096 ||
          rec.batch_first > rec.batch_last) {
        return DataLossError("DecodeWalRecord: bad batch header");
      }
      for (uint32_t i = 0; i < nshards; ++i) {
        rec.batch_shards.push_back(d.GetU32());
      }
      const uint32_t nchanges = d.GetU32();
      if (!d.ok() || nchanges == 0 ||
          nchanges > rec.batch_last - rec.batch_first + 1) {
        return DataLossError("DecodeWalRecord: bad batch size");
      }
      rec.changes.resize(nchanges);
      for (ChangeRecord& change : rec.changes) {
        if (!DecodeChangeBody(d, &change) || change.seqno < rec.batch_first ||
            change.seqno > rec.batch_last) {
          return DataLossError("DecodeWalRecord: bad batch change");
        }
        change.batch_end = rec.batch_last;
      }
      break;
    }
    case static_cast<uint8_t>(WalRecordKind::kCreateTable): {
      rec.kind = WalRecordKind::kCreateTable;
      rec.table = d.GetString();
      rec.key_column = d.GetU32();
      const uint32_t ncols = d.GetU32();
      if (!d.ok() || ncols == 0 || ncols > 4096 || rec.key_column >= ncols) {
        return DataLossError("DecodeWalRecord: bad table schema");
      }
      for (uint32_t i = 0; i < ncols; ++i) {
        ColumnSpec col;
        col.name = d.GetString();
        const uint8_t type = d.GetU8();
        if (type > static_cast<uint8_t>(ColumnType::kString)) {
          return DataLossError("DecodeWalRecord: bad column type");
        }
        col.type = static_cast<ColumnType>(type);
        rec.columns.push_back(std::move(col));
      }
      break;
    }
    case static_cast<uint8_t>(WalRecordKind::kCreateIndex): {
      rec.kind = WalRecordKind::kCreateIndex;
      rec.table = d.GetString();
      rec.column = d.GetString();
      break;
    }
    default:
      return DataLossError("DecodeWalRecord: unknown record kind");
  }
  if (!d.AtEnd()) {
    return DataLossError("DecodeWalRecord: malformed payload");
  }
  return rec;
}

}  // namespace

// --- schema -----------------------------------------------------------------

Status Database::CreateTable(std::string_view table,
                             std::vector<ColumnSpec> columns,
                             size_t key_column) {
  if (columns.empty()) {
    return InvalidArgumentError("CreateTable: no columns");
  }
  if (key_column >= columns.size()) {
    return InvalidArgumentError("CreateTable: key column out of range");
  }
  const std::string name(table);
  std::lock_guard commit(commit_mutex_);
  std::unique_lock schema_lock(schema_mutex_);
  if (schemas_.contains(name)) {
    return AlreadyExistsError("CreateTable: table exists: " + name);
  }
  // Schema changes are WAL-logged like data changes (carrying the current
  // seqno watermark) into *every* shard stream, so each stream replays to a
  // complete schema on its own.
  if (Status s = WalAppendAll(
          next_seqno_.load(std::memory_order_relaxed) - 1,
          EncodeWalCreateTable(table, columns, key_column));
      !s.ok()) {
    return s;
  }
  TableSchema schema;
  schema.columns = std::move(columns);
  schema.key_column = key_column;
  schemas_.emplace(name, std::move(schema));
  for (auto& shard : shards_) {
    std::unique_lock shard_lock(shard->mutex);
    shard->tables.try_emplace(name);
  }
  return Status::Ok();
}

bool Database::HasTable(std::string_view table) const {
  std::shared_lock lock(schema_mutex_);
  return schemas_.find(std::string(table)) != schemas_.end();
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock lock(schema_mutex_);
  std::vector<std::string> names;
  names.reserve(schemas_.size());
  for (const auto& [name, _] : schemas_) names.push_back(name);
  return names;  // schemas_ is an ordered map — already sorted
}

Status Database::ValidateRow(const TableSchema& schema, const Row& row) const {
  if (row.size() != schema.columns.size()) {
    return InvalidArgumentError("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeMatches(row[i], schema.columns[i].type)) {
      return InvalidArgumentError("type mismatch in column " +
                                  schema.columns[i].name);
    }
  }
  return Status::Ok();
}

// --- commit path ------------------------------------------------------------

Status Database::WalAppendAll(uint64_t seqno, const std::string& payload) {
  // A failure part-way leaves the DDL in some streams only; replay
  // tolerates that (DDL application is idempotent) and the commit fails.
  for (const auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    if (Status s = shard->wal->Append(seqno, payload); !s.ok()) return s;
  }
  return Status::Ok();
}

void Database::UnindexRow(Partition& p, const RowEntry& entry) {
  for (auto& [column, index] : p.indexes) {
    const std::string value = KeyString(entry.second[column]);
    for (auto it = index.lower_bound(value);
         it != index.end() && it->first == value; ++it) {
      if (it->second == &entry) {
        index.erase(it);
        break;
      }
    }
  }
}

void Database::IndexRow(Partition& p, const RowEntry& entry) {
  for (auto& [column, index] : p.indexes) {
    index.emplace(KeyString(entry.second[column]), &entry);
  }
}

void Database::ApplyChange(Partition& p, const ChangeRecord& change) {
  switch (change.op) {
    case ChangeOp::kInsert:
    case ChangeOp::kUpdate: {
      if (auto old = p.rows.find(change.key); old != p.rows.end()) {
        UnindexRow(p, *old);
      }
      // Assignment keeps an existing node in place, so index entries that
      // point at it stay valid.
      auto [row_it, _] = p.rows.insert_or_assign(change.key, change.row);
      IndexRow(p, *row_it);
      break;
    }
    case ChangeOp::kDelete: {
      if (auto old = p.rows.find(change.key); old != p.rows.end()) {
        UnindexRow(p, *old);
        p.rows.erase(old);
      }
      break;
    }
  }
}

void Database::RingCommitWakeup() {
  std::lock_guard lock(wakeup_mutex_);
  if (commit_wakeup_) commit_wakeup_();
}

void Database::SetCommitWakeup(std::function<void()> wakeup) {
  std::lock_guard lock(wakeup_mutex_);
  commit_wakeup_ = std::move(wakeup);
}

Status Database::CommitRecords(std::vector<ChangeRecord> records) {
  const uint64_t first = records.front().seqno;
  const uint64_t last = records.back().seqno;
  std::vector<uint32_t> touched;
  for (ChangeRecord& r : records) {
    r.batch_end = last;
    touched.push_back(r.shard);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Write-ahead: one frame per touched stream, synced per its policy, before
  // anything becomes visible. Only the commit mutex is held, so readers do
  // not wait on the flush. A failed first append commits nothing and
  // consumes no seqno.
  size_t appended = 0;
  for (const uint32_t k : touched) {
    wal::WriteAheadLog* wal = shards_[k]->wal;
    if (wal == nullptr) continue;
    std::vector<const ChangeRecord*> part;
    for (const ChangeRecord& r : records) {
      if (r.shard == k) part.push_back(&r);
    }
    const std::string payload =
        records.size() == 1 ? EncodeWalChange(records.front())
                            : EncodeWalBatch(first, last, touched, part);
    if (Status s = wal->Append(part.back()->seqno, payload); !s.ok()) {
      // Another stream already holds part of this batch; only Recover()
      // can settle it.
      if (appended > 0) wedged_ = true;
      return s;
    }
    ++appended;
  }

  // Every touched shard's write lock (ascending, the global order) is held
  // across the whole apply, so a reader sees all of the batch or none.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(touched.size());
  for (const uint32_t k : touched) locks.emplace_back(shards_[k]->mutex);
  for (ChangeRecord& r : records) {
    Shard& shard = *shards_[r.shard];
    ApplyChange(shard.tables[r.table], r);
    shard.next_shard_seqno = r.shard_seqno + 1;
    shard.log.push_back(std::move(r));
  }
  // On a replica the total order is the feed's: track its high-water mark.
  if (last >= next_seqno_.load(std::memory_order_relaxed)) {
    next_seqno_.store(last + 1, std::memory_order_release);
  }
  commits_->Increment(records.size());
  return Status::Ok();
}

Status Database::Commit(WriteBatch batch) {
  if (batch.empty()) return Status::Ok();
  // Decide the commit fate before taking the locks; an injected error fails
  // the batch cleanly, an injected delay stalls the commit timestamp.
  const auto fate = fault::Decide(faults_, "db", instance_, "commit");
  if (!fate.status.ok()) return fate.status;
  std::unique_lock commit(commit_mutex_);
  if (wedged_) return WedgedError();
  std::shared_lock schema_lock(schema_mutex_);

  const TimeNs committed_at = clock_->Now() + fate.delay;
  uint64_t seqno = next_seqno_.load(std::memory_order_relaxed);
  std::vector<uint64_t> next_shard_seqno;
  for (const auto& shard : shards_) {
    next_shard_seqno.push_back(shard->next_shard_seqno);
  }
  // Whether a (table, key) this batch already wrote exists after it.
  std::unordered_map<std::string, bool> written;
  std::vector<ChangeRecord> records;
  records.reserve(batch.size());
  for (WriteBatch::Op& op : batch.ops_) {
    auto it = schemas_.find(op.table);
    if (it == schemas_.end()) {
      return NotFoundError("Commit: no table " + op.table);
    }
    const TableSchema& schema = it->second;
    if (!op.erase) {
      if (Status s = ValidateRow(schema, op.row); !s.ok()) return s;
    }
    ChangeRecord& change = records.emplace_back();
    change.key = KeyString(op.erase ? op.key : op.row[schema.key_column]);
    change.shard = ShardOf(change.key, shards());
    // The commit mutex excludes every writer, so rows are read here
    // without the shard lock.
    const std::string written_key = op.table + '\0' + change.key;
    bool exists;
    if (auto w = written.find(written_key); w != written.end()) {
      exists = w->second;
    } else {
      const auto& partitions = shards_[change.shard]->tables;
      auto p = partitions.find(op.table);
      exists = p != partitions.end() && p->second.rows.contains(change.key);
    }
    if (op.erase && !exists) {
      return NotFoundError("Delete: no row " + change.key);
    }
    written[written_key] = !op.erase;
    change.op = op.erase ? ChangeOp::kDelete
                         : exists ? ChangeOp::kUpdate : ChangeOp::kInsert;
    change.row = std::move(op.row);
    change.table = std::move(op.table);
    change.committed_at = committed_at;
    change.seqno = seqno++;
    change.shard_seqno = next_shard_seqno[change.shard]++;
  }
  Status s = CommitRecords(std::move(records));
  schema_lock.unlock();
  commit.unlock();
  if (s.ok()) RingCommitWakeup();
  return s;
}

Status Database::Upsert(std::string_view table, Row row) {
  WriteBatch batch;
  batch.Upsert(table, std::move(row));
  return Commit(std::move(batch));
}

Status Database::ApplyReplicated(std::span<const ChangeRecord> batch) {
  if (batch.empty()) return Status::Ok();
  std::unique_lock commit(commit_mutex_);
  if (wedged_) return WedgedError();
  std::shared_lock schema_lock(schema_mutex_);
  std::vector<uint64_t> next_shard_seqno;
  for (const auto& shard : shards_) {
    next_shard_seqno.push_back(shard->next_shard_seqno);
  }
  for (const ChangeRecord& change : batch) {
    auto it = schemas_.find(change.table);
    if (it == schemas_.end()) {
      return NotFoundError("ApplyReplicated: no table " + change.table);
    }
    if (change.shard >= shards()) {
      return InvalidArgumentError(
          "ApplyReplicated: record for shard " + std::to_string(change.shard) +
          " but this store has " + std::to_string(shards()) +
          " — replicas must mirror their feed's shard layout");
    }
    if (ShardOf(change.key, shards()) != change.shard) {
      return InvalidArgumentError(
          "ApplyReplicated: this store places key " + change.key +
          " on a different shard than the feed did");
    }
    // Per-shard density is the in-order/exactly-once guarantee: a hole in
    // one shard's stream stalls only the batches touching that shard, and
    // the consumer re-pulls them.
    uint64_t& next = next_shard_seqno[change.shard];
    if (change.shard_seqno != next) {
      return DataLossError(
          "ApplyReplicated: shard " + std::to_string(change.shard) +
          " expected shard seqno " + std::to_string(next) + ", got " +
          std::to_string(change.shard_seqno));
    }
    ++next;
    if (change.op != ChangeOp::kDelete) {
      if (Status s = ValidateRow(it->second, change.row); !s.ok()) return s;
    }
  }
  Status s =
      CommitRecords(std::vector<ChangeRecord>(batch.begin(), batch.end()));
  schema_lock.unlock();
  commit.unlock();
  if (s.ok()) RingCommitWakeup();
  return s;
}

Status Database::WedgedError() {
  return FailedPreconditionError(
      "commit refused: an earlier batch reached only some WAL streams; "
      "reopen them and Recover()");
}

// --- query ------------------------------------------------------------------

size_t Database::Read(std::string_view table, const RowFilter& filter,
                      const RowVisitor& visit) const {
  std::shared_lock schema_lock(schema_mutex_);
  auto schema_it = schemas_.find(table);
  if (schema_it == schemas_.end()) return 0;
  const TableSchema& schema = schema_it->second;

  if (filter.kind == RowFilter::Kind::kKey) {
    const std::string pk = KeyString(filter.value);
    const Shard& shard = *shards_[ShardOf(pk, shards())];
    std::shared_lock lock(shard.mutex);
    auto pit = shard.tables.find(table);
    if (pit == shard.tables.end()) return 0;
    auto row_it = pit->second.rows.find(pk);
    if (row_it == pit->second.rows.end()) return 0;
    visit(row_it->second);
    return 1;
  }

  const bool equals = filter.kind == RowFilter::Kind::kEquals;
  size_t column_index = schema.columns.size();
  std::string needle;
  if (equals) {
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      if (schema.columns[i].name == filter.column) {
        column_index = i;
        break;
      }
    }
    if (column_index == schema.columns.size()) return 0;
    needle = KeyString(filter.value);
  }

  // Lock every shard (ascending — the global lock order) for an atomic
  // snapshot, then merge the partitions' matches back into primary-key
  // order so the result is the same for any shard count.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  std::vector<const RowEntry*> merged;
  for (const auto& shard : shards_) {
    auto pit = shard->tables.find(table);
    if (pit == shard->tables.end()) continue;
    const Partition& p = pit->second;
    if (!equals) {
      for (const RowEntry& entry : p.rows) merged.push_back(&entry);
      continue;
    }
    if (auto index_it = p.indexes.find(column_index);
        index_it != p.indexes.end()) {
      for (auto e = index_it->second.lower_bound(needle);
           e != index_it->second.end() && e->first == needle; ++e) {
        merged.push_back(e->second);
      }
      continue;
    }
    for (const RowEntry& entry : p.rows) {
      if (KeyString(entry.second[column_index]) == needle) {
        merged.push_back(&entry);
      }
    }
  }
  // One partition's full scan is already key-ordered; index matches and
  // multi-shard merges are not.
  if (equals || shards_.size() > 1) {
    std::sort(merged.begin(), merged.end(),
              [](const RowEntry* a, const RowEntry* b) {
                return a->first < b->first;
              });
  }
  for (const RowEntry* entry : merged) visit(entry->second);
  return merged.size();
}

Status Database::CreateIndex(std::string_view table, std::string_view column) {
  const std::string name(table);
  std::lock_guard commit(commit_mutex_);
  std::unique_lock schema_lock(schema_mutex_);
  auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    return NotFoundError("CreateIndex: no table " + name);
  }
  TableSchema& schema = it->second;
  size_t column_index = schema.columns.size();
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    if (schema.columns[i].name == column) {
      column_index = i;
      break;
    }
  }
  if (column_index == schema.columns.size()) {
    return NotFoundError("CreateIndex: no column " + std::string(column));
  }
  if (std::find(schema.indexed_columns.begin(), schema.indexed_columns.end(),
                column_index) != schema.indexed_columns.end()) {
    return Status::Ok();  // idempotent
  }
  if (Status s =
          WalAppendAll(next_seqno_.load(std::memory_order_relaxed) - 1,
                       EncodeWalCreateIndex(table, column));
      !s.ok()) {
    return s;
  }
  schema.indexed_columns.push_back(column_index);
  std::sort(schema.indexed_columns.begin(), schema.indexed_columns.end());
  for (auto& shard : shards_) {
    std::unique_lock shard_lock(shard->mutex);
    Partition& p = shard->tables[name];
    auto [index_it, created] = p.indexes.try_emplace(column_index);
    if (!created) continue;
    for (const RowEntry& entry : p.rows) {
      index_it->second.emplace(KeyString(entry.second[column_index]), &entry);
    }
  }
  return Status::Ok();
}

bool Database::HasIndex(std::string_view table, std::string_view column) const {
  std::shared_lock lock(schema_mutex_);
  auto it = schemas_.find(std::string(table));
  if (it == schemas_.end()) return false;
  const TableSchema& schema = it->second;
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    if (schema.columns[i].name == column) {
      return std::find(schema.indexed_columns.begin(),
                       schema.indexed_columns.end(),
                       i) != schema.indexed_columns.end();
    }
  }
  return false;
}

size_t Database::RowCount(std::string_view table) const {
  const std::string name(table);
  size_t count = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    auto pit = shard->tables.find(name);
    if (pit != shard->tables.end()) count += pit->second.rows.size();
  }
  return count;
}

// --- durability -------------------------------------------------------------

Status Database::Checkpoint() {
  if (shards_[0]->wal == nullptr) {
    return FailedPreconditionError("Checkpoint: no WAL attached");
  }
  std::lock_guard commit(commit_mutex_);
  // Every stream is synced before any image is written, so no image covers
  // a batch whose part on another shard could still be lost.
  if (Status s = Sync(); !s.ok()) return s;
  std::shared_lock schema_lock(schema_mutex_);
  const uint64_t watermark = next_seqno_.load(std::memory_order_relaxed) - 1;
  std::vector<std::string> names;
  names.reserve(schemas_.size());
  for (const auto& [name, _] : schemas_) names.push_back(name);

  for (uint32_t k = 0; k < shards(); ++k) {
    Shard& shard = *shards_[k];
    std::unique_lock shard_lock(shard.mutex);
    const uint64_t shard_mark = shard.next_shard_seqno - 1;

    // Image format 2: shard identity + both watermarks + full schema + this
    // shard's rows, so every stream recovers alone (and a checkpoint from a
    // different shard layout is detected instead of misread).
    wal::Encoder image;
    image.PutU8(2);
    image.PutU32(k);
    image.PutU32(shards());
    image.PutU64(watermark);
    image.PutU64(shard_mark);
    image.PutU32(static_cast<uint32_t>(names.size()));
    for (const std::string& name : names) {
      const TableSchema& schema = schemas_.at(name);
      image.PutString(name);
      image.PutU32(static_cast<uint32_t>(schema.key_column));
      image.PutU32(static_cast<uint32_t>(schema.columns.size()));
      for (const ColumnSpec& col : schema.columns) {
        image.PutString(col.name);
        image.PutU8(static_cast<uint8_t>(col.type));
      }
      image.PutU32(static_cast<uint32_t>(schema.indexed_columns.size()));
      for (const size_t column_index : schema.indexed_columns) {
        image.PutU32(static_cast<uint32_t>(column_index));
      }
      const auto pit = shard.tables.find(name);
      const Partition* p = pit == shard.tables.end() ? nullptr : &pit->second;
      image.PutU32(p ? static_cast<uint32_t>(p->rows.size()) : 0);
      if (p) {
        for (const auto& [_, row] : p->rows) EncodeRow(image, row);
      }
    }
    if (Status s = shard.wal->WriteCheckpoint(watermark, image.str());
        !s.ok()) {
      return s;
    }

    // The checkpoint now covers this shard through `shard_mark`: retire WAL
    // segments fully covered, and shrink the in-memory change log to the
    // retention bound — consumers further behind than the retained head go
    // through resync instead of the log.
    if (retention_ > 0 && shard_mark + 1 > retention_) {
      const uint64_t new_head = shard_mark + 1 - retention_;
      if (new_head > shard.log_head) {
        auto cut = std::lower_bound(
            shard.log.begin(), shard.log.end(), new_head,
            [](const ChangeRecord& r, uint64_t s) { return r.shard_seqno < s; });
        if (cut != shard.log.begin()) {
          const uint64_t max_erased_global = std::prev(cut)->seqno;
          if (max_erased_global + 1 >
              global_log_head_.load(std::memory_order_relaxed)) {
            global_log_head_.store(max_erased_global + 1,
                                   std::memory_order_release);
          }
        }
        shard.log.erase(shard.log.begin(), cut);
        shard.log_head = new_head;
      }
    }
    if (auto trimmed = shard.wal->TruncateThrough(watermark); !trimmed.ok()) {
      return trimmed.status();
    }
  }
  return Status::Ok();
}

Status Database::Sync() {
  for (const auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    if (Status s = shard->wal->Sync(); !s.ok()) return s;
  }
  return Status::Ok();
}

struct Database::ShardRecoveryScratch {
  std::map<std::string, TableSchema, std::less<>> schema;
  ShardRecovery result;
  uint64_t after_lsn = 0;  // the loaded checkpoint's lsn
  // The stream's tail past the checkpoint, decoded in LSN order; only the
  // records of frames [0, keep) are applied.
  std::vector<std::pair<uint64_t, WalRecord>> frames;  // (lsn, record)
  size_t keep = 0;
  Status batch_loss = Status::Ok();  // lost records of a partial batch
};

void Database::ReadShardTail(uint32_t index, ShardRecoveryScratch& sc) {
  const auto t0 = std::chrono::steady_clock::now();
  Shard& shard = *shards_[index];
  ShardRecovery& r = sc.result;
  r.torn_bytes = shard.wal->torn_bytes_dropped();
  const auto done = [&] {
    r.replay_ms += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  };

  auto ckpt = shard.wal->ReadLatestCheckpoint();
  if (ckpt.ok()) {
    wal::Decoder d(ckpt.value().image);
    if (d.GetU8() != 2) {
      r.status = DataLossError("Recover: unknown checkpoint image version");
      return done();
    }
    const uint32_t image_shard = d.GetU32();
    const uint32_t image_shards = d.GetU32();
    const uint64_t global_mark = d.GetU64();
    const uint64_t shard_mark = d.GetU64();
    const uint32_t ntables = d.GetU32();
    if (!d.ok() || global_mark != ckpt.value().seqno) {
      r.status = DataLossError("Recover: checkpoint image header mismatch");
      return done();
    }
    if (image_shard != index || image_shards != shards()) {
      r.status = DataLossError(
          "Recover: checkpoint belongs to a different shard layout "
          "(re-sharding requires a fresh sync)");
      return done();
    }
    for (uint32_t ti = 0; ti < ntables; ++ti) {
      const std::string name = d.GetString();
      TableSchema schema;
      schema.key_column = d.GetU32();
      const uint32_t ncols = d.GetU32();
      if (!d.ok() || ncols == 0 || ncols > 4096 || schema.key_column >= ncols) {
        r.status = DataLossError("Recover: bad schema in checkpoint image");
        return done();
      }
      for (uint32_t ci = 0; ci < ncols; ++ci) {
        ColumnSpec col;
        col.name = d.GetString();
        const uint8_t type = d.GetU8();
        if (type > static_cast<uint8_t>(ColumnType::kString)) {
          r.status =
              DataLossError("Recover: bad column type in checkpoint image");
          return done();
        }
        col.type = static_cast<ColumnType>(type);
        schema.columns.push_back(std::move(col));
      }
      const uint32_t nindexes = d.GetU32();
      if (!d.ok() || nindexes > ncols) {
        r.status = DataLossError("Recover: bad index list in checkpoint image");
        return done();
      }
      Partition p;
      for (uint32_t ii = 0; ii < nindexes; ++ii) {
        const uint32_t column_index = d.GetU32();
        if (column_index >= ncols) {
          r.status =
              DataLossError("Recover: bad index column in checkpoint image");
          return done();
        }
        schema.indexed_columns.push_back(column_index);
        p.indexes.try_emplace(column_index);
      }
      const uint32_t nrows = d.GetU32();
      for (uint32_t ri = 0; d.ok() && ri < nrows; ++ri) {
        Row row;
        if (!DecodeRow(d, &row) || row.size() != ncols) {
          r.status = DataLossError("Recover: bad row in checkpoint image");
          return done();
        }
        const std::string pk = KeyString(row[schema.key_column]);
        auto [row_it, _] = p.rows.insert_or_assign(pk, std::move(row));
        IndexRow(p, *row_it);
      }
      if (!d.ok()) {
        r.status = DataLossError("Recover: truncated checkpoint image");
        return done();
      }
      shard.tables.insert_or_assign(name, std::move(p));
      sc.schema.insert_or_assign(name, std::move(schema));
    }
    if (!d.AtEnd()) {
      r.status = DataLossError("Recover: trailing bytes in checkpoint image");
      return done();
    }
    r.checkpoint_seqno = global_mark;
    r.last_global_seqno = global_mark;
    shard.next_shard_seqno = shard_mark + 1;
    shard.log_head = shard_mark + 1;
    sc.after_lsn = ckpt.value().lsn;
  } else if (ckpt.status().code() != ErrorCode::kNotFound) {
    r.status = ckpt.status();
    return done();
  }

  // A decode error keeps the clean prefix before it — the shard serves what
  // it has and is flagged kDataLoss by the merge step.
  r.status = shard.wal->Replay(
      sc.after_lsn, [&](uint64_t lsn, uint64_t, std::string_view payload) {
        auto rec = DecodeWalRecord(payload);
        if (!rec.ok()) return rec.status();
        sc.frames.emplace_back(lsn, std::move(rec).value());
        return Status::Ok();
      });
  sc.keep = sc.frames.size();
  done();
}

void Database::CutPartialBatches(std::vector<ShardRecoveryScratch>& scratch) {
  const size_t n = scratch.size();
  // Every multi-shard batch in the tails: its range, its shards, and the
  // frame holding its part on each shard that has one.
  struct Parts {
    uint64_t last = 0;
    std::vector<uint32_t> shards;
    std::map<uint32_t, size_t> frame;
  };
  std::map<uint64_t, Parts> batches;
  for (uint32_t k = 0; k < n; ++k) {
    const auto& frames = scratch[k].frames;
    for (size_t i = 0; i < frames.size(); ++i) {
      const WalRecord& rec = frames[i].second;
      if (rec.kind != WalRecordKind::kBatch || rec.batch_shards.size() < 2) {
        continue;
      }
      Parts& b = batches[rec.batch_first];
      b.last = rec.batch_last;
      b.shards = rec.batch_shards;
      b.frame[k] = i;
    }
  }
  if (batches.empty()) return;

  // A shard's checkpoint covers every batch at or below its watermark
  // (Checkpoint syncs every stream before writing any image).
  const auto covered = [&](const Parts& b, uint32_t t) {
    return t < n && b.last <= scratch[t].result.checkpoint_seqno;
  };
  const auto durable = [&](const Parts& b, uint32_t t) {
    if (covered(b, t)) return true;
    auto it = b.frame.find(t);
    return it != b.frame.end() && it->second < scratch[t].keep;
  };
  // Each shard keeps the frames before its first batch with a part that is
  // not durable. Cutting one tail can orphan a later batch's parts on
  // another shard, so repeat until no cut moves.
  for (bool moved = true; moved;) {
    moved = false;
    for (auto& sc : scratch) {
      for (size_t i = 0; i < sc.keep; ++i) {
        const WalRecord& rec = sc.frames[i].second;
        if (rec.kind != WalRecordKind::kBatch || rec.batch_shards.size() < 2) {
          continue;
        }
        const Parts& b = batches.at(rec.batch_first);
        if (std::all_of(b.shards.begin(), b.shards.end(),
                        [&](uint32_t t) { return durable(b, t); })) {
          continue;
        }
        sc.keep = i;
        moved = true;
        break;
      }
    }
  }

  // Flag the shards that lost records: those without their part of a
  // batch another shard holds, and those that drop a record of a batch
  // whose every part reached disk (only a stream's tail past a partial
  // batch can hold one).
  const auto missing = [&](const Parts& b, uint32_t t) {
    return t >= n || (!covered(b, t) && !b.frame.contains(t));
  };
  const auto broken = [&](const Parts& b) {
    return std::any_of(b.shards.begin(), b.shards.end(),
                       [&](uint32_t t) { return missing(b, t); });
  };
  const auto flag = [&](uint32_t k, std::string why) {
    if (scratch[k].batch_loss.ok()) {
      scratch[k].batch_loss = DataLossError("shard " + std::to_string(k) +
                                            ": " + std::move(why));
    }
  };
  for (const auto& [first, b] : batches) {
    if (!broken(b)) continue;
    for (const uint32_t t : b.shards) {
      if (t < n && missing(b, t)) {
        flag(t, "its part of the batch at seqno " + std::to_string(first) +
                    " never reached the WAL; heal via catch-up");
      }
    }
  }
  for (uint32_t k = 0; k < n; ++k) {
    auto& sc = scratch[k];
    for (size_t i = sc.keep; i < sc.frames.size(); ++i) {
      const WalRecord& rec = sc.frames[i].second;
      if (rec.changes.empty()) continue;  // DDL
      sc.result.dropped_records += rec.changes.size();
      const bool part_of_broken = rec.kind == WalRecordKind::kBatch &&
                                  rec.batch_shards.size() > 1 &&
                                  broken(batches.at(rec.batch_first));
      if (!part_of_broken) {
        flag(k, "dropped a durable commit behind a partial batch; heal via "
                "catch-up");
      }
    }
  }
}

void Database::ReplayShardTail(uint32_t index, ShardRecoveryScratch& sc) {
  const auto t0 = std::chrono::steady_clock::now();
  Shard& shard = *shards_[index];
  ShardRecovery& r = sc.result;
  const auto apply = [&](WalRecord& rec) -> Status {
    switch (rec.kind) {
      case WalRecordKind::kCreateTable: {
        if (sc.schema.contains(rec.table)) break;  // in the checkpoint
        TableSchema schema;
        schema.columns = std::move(rec.columns);
        schema.key_column = rec.key_column;
        sc.schema.emplace(rec.table, std::move(schema));
        shard.tables.try_emplace(rec.table);
        break;
      }
      case WalRecordKind::kCreateIndex: {
        auto it = sc.schema.find(rec.table);
        if (it == sc.schema.end()) {
          return DataLossError("Recover: index on unknown table " + rec.table);
        }
        TableSchema& schema = it->second;
        size_t column_index = schema.columns.size();
        for (size_t i = 0; i < schema.columns.size(); ++i) {
          if (schema.columns[i].name == rec.column) {
            column_index = i;
            break;
          }
        }
        if (column_index == schema.columns.size()) {
          return DataLossError("Recover: index on unknown column " +
                               rec.column);
        }
        if (std::find(schema.indexed_columns.begin(),
                      schema.indexed_columns.end(),
                      column_index) == schema.indexed_columns.end()) {
          schema.indexed_columns.push_back(column_index);
          std::sort(schema.indexed_columns.begin(),
                    schema.indexed_columns.end());
        }
        Partition& p = shard.tables[rec.table];
        auto [index_it, created] = p.indexes.try_emplace(column_index);
        if (created) {
          for (const RowEntry& entry : p.rows) {
            index_it->second.emplace(KeyString(entry.second[column_index]),
                                     &entry);
          }
        }
        break;
      }
      case WalRecordKind::kChange:
      case WalRecordKind::kBatch: {
        for (ChangeRecord& change : rec.changes) {
          if (change.shard != index) {
            return DataLossError("Recover: record for shard " +
                                 std::to_string(change.shard) + " in shard " +
                                 std::to_string(index) + "'s stream");
          }
          if (change.shard_seqno != shard.next_shard_seqno) {
            return DataLossError(
                "Recover: shard " + std::to_string(index) +
                " expected shard seqno " +
                std::to_string(shard.next_shard_seqno) + ", got " +
                std::to_string(change.shard_seqno));
          }
          auto pit = shard.tables.find(change.table);
          if (pit == shard.tables.end()) {
            return DataLossError("Recover: change for unknown table " +
                                 change.table);
          }
          ApplyChange(pit->second, change);
          shard.next_shard_seqno = change.shard_seqno + 1;
          r.last_global_seqno = change.seqno;
          shard.log.push_back(std::move(change));
          ++r.replayed;
        }
        break;
      }
    }
    return Status::Ok();
  };

  // Schema records past the cut were committed on their own: they still
  // apply, and go back into the stream after the truncation.
  Status replay = Status::Ok();
  std::vector<std::string> ddl_past_cut;
  for (size_t i = 0; i < sc.frames.size() && replay.ok(); ++i) {
    WalRecord& rec = sc.frames[i].second;
    if (i >= sc.keep) {
      if (!rec.changes.empty()) continue;
      ddl_past_cut.push_back(
          rec.kind == WalRecordKind::kCreateTable
              ? EncodeWalCreateTable(rec.table, rec.columns, rec.key_column)
              : EncodeWalCreateIndex(rec.table, rec.column));
    }
    replay = apply(rec);
  }
  if (replay.ok() && sc.keep < sc.frames.size()) {
    replay = shard.wal->TruncateAfter(
        sc.keep == 0 ? sc.after_lsn : sc.frames[sc.keep - 1].first);
    for (size_t i = 0; i < ddl_past_cut.size() && replay.ok(); ++i) {
      replay = shard.wal->Append(shard.wal->last_seqno(), ddl_past_cut[i]);
    }
  }
  // A replay error keeps the clean prefix applied before it — the shard
  // serves what it has and is flagged kDataLoss by the merge step.
  if (!replay.ok() && r.status.ok()) r.status = replay;
  sc.frames.clear();
  r.shard_seqno = shard.next_shard_seqno - 1;
  r.replay_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
}

Status Database::Recover() {
  if (shards_[0]->wal == nullptr) {
    return FailedPreconditionError("Recover: no WAL attached");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard commit(commit_mutex_);
  std::unique_lock schema_lock(schema_mutex_);
  if (!schemas_.empty() || next_seqno_.load(std::memory_order_relaxed) != 1) {
    return FailedPreconditionError("Recover: database is not empty");
  }
  for (const auto& shard : shards_) {
    if (!shard->log.empty()) {
      return FailedPreconditionError("Recover: database is not empty");
    }
  }

  // Read, then replay, every shard in parallel: each worker owns its
  // shard's state exclusively (plus private schema scratch merged serially
  // below), so no locks are needed while the pool runs. Between the two
  // passes every tail is cut before its first batch that is not durable on
  // every shard it touched.
  const size_t n = shards_.size();
  std::vector<ShardRecoveryScratch> scratch(n);
  size_t workers =
      recovery_threads_ != 0
          ? recovery_threads_
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, n);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  using Pass = void (Database::*)(uint32_t, ShardRecoveryScratch&);
  const auto each_shard = [&](Pass pass) {
    for (uint32_t k = 0; k < n; ++k) {
      const auto run = [this, pass, k, &scratch] {
        (this->*pass)(k, scratch[k]);
      };
      if (pool == nullptr || !pool->Submit(run)) run();
    }
    if (pool != nullptr) pool->Wait();
  };
  each_shard(&Database::ReadShardTail);
  CutPartialBatches(scratch);
  each_shard(&Database::ReplayShardTail);
  pool.reset();

  // Merge the per-shard schema views (identical by construction — every
  // stream carries every DDL record; a stream torn before a late DDL just
  // misses tables it holds no rows for).
  for (const auto& sc : scratch) {
    for (const auto& [name, schema] : sc.schema) {
      auto [it, inserted] = schemas_.try_emplace(name, schema);
      if (inserted) continue;
      TableSchema& have = it->second;
      if (have.key_column != schema.key_column ||
          have.columns.size() != schema.columns.size()) {
        return DataLossError("Recover: shard streams disagree on the schema of "
                             + name);
      }
      for (const size_t ci : schema.indexed_columns) {
        if (std::find(have.indexed_columns.begin(), have.indexed_columns.end(),
                      ci) == have.indexed_columns.end()) {
          have.indexed_columns.push_back(ci);
        }
      }
      std::sort(have.indexed_columns.begin(), have.indexed_columns.end());
    }
  }
  // Every shard serves every table (a stream torn before a CreateTable
  // still needs the partition other shards know about).
  for (const auto& [name, schema] : schemas_) {
    for (const auto& shard : shards_) {
      Partition& p = shard->tables[name];
      for (const size_t ci : schema.indexed_columns) p.indexes.try_emplace(ci);
    }
  }

  // Cross-shard accounting. Global seqnos are dense across shards, so the
  // highest watermark seen anywhere counts the commits that must exist;
  // per-shard seqnos are dense from 1, so their sum counts the commits
  // recovered. The difference is provable loss, attributed to the shards
  // whose streams end early (suffix-only truncation means a shard holds
  // *all* its records up to its last global watermark).
  uint64_t high = 0;
  uint64_t recovered_count = 0;
  uint64_t max_ckpt = 0;
  uint64_t replayed_total = 0;
  size_t failed_shards = 0;
  for (const auto& sc : scratch) {
    high = std::max(high, sc.result.last_global_seqno);
    recovered_count += sc.result.shard_seqno;
    max_ckpt = std::max(max_ckpt, sc.result.checkpoint_seqno);
    replayed_total += sc.result.replayed;
  }
  const uint64_t missing = high > recovered_count ? high - recovered_count : 0;

  recovery_report_ = RecoveryReport{};
  recovery_report_.missing_records = missing;
  Status first_error = Status::Ok();
  for (uint32_t k = 0; k < n; ++k) {
    ShardRecovery r = scratch[k].result;
    if (!r.status.ok()) {
      ++failed_shards;
      if (first_error.ok()) first_error = r.status;
    } else if (r.torn_bytes > 0) {
      r.status = DataLossError(
          "shard " + std::to_string(k) + ": torn WAL tail (" +
          std::to_string(r.torn_bytes) + " bytes dropped); heal via catch-up");
    } else {
      r.status = scratch[k].batch_loss;
    }
    // A clean-boundary tail loss (group commit: frames unsynced at the
    // crash, nothing torn) leaves no per-shard evidence — a short stream
    // looks identical to a shard that simply had no recent commits. Those
    // losses surface only as the cross-shard missing_records count above;
    // attributing them to every shard below the high watermark would flag
    // healthy shards, so we deliberately do not.
    recovery_report_.shards.push_back(std::move(r));
  }

  next_seqno_.store(high + 1, std::memory_order_release);
  global_log_head_.store(max_ckpt + 1, std::memory_order_release);

  recovered_records_->Increment(replayed_total);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  recovery_report_.total_ms = ms;
  recovery_ms_->Observe(ms);
  // Partial loss is survivable (the healthy shards serve; the flagged ones
  // heal through replication) — only a store with *no* usable shard fails.
  if (failed_shards == n && !first_error.ok()) return first_error;
  return Status::Ok();
}

// --- change feed ------------------------------------------------------------

uint64_t Database::LastSeqno() const {
  return next_seqno_.load(std::memory_order_acquire) - 1;
}

uint64_t Database::log_head_seqno() const {
  return global_log_head_.load(std::memory_order_acquire);
}

ChangeCursor Database::AppliedCursor() const {
  ChangeCursor cursor;
  cursor.positions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    cursor.positions.push_back(shard->next_shard_seqno - 1);
  }
  return cursor;
}

ChangeCursor Database::RetainedCursor() const {
  ChangeCursor cursor;
  cursor.positions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    cursor.positions.push_back(shard->log_head - 1);
  }
  return cursor;
}

ChangeCursor Database::CursorAtGlobal(uint64_t seqno) const {
  ChangeCursor cursor;
  cursor.positions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    // Shard logs ascend in both seqno spaces; find the last record at or
    // before the global watermark.
    auto it = std::upper_bound(
        shard->log.begin(), shard->log.end(), seqno,
        [](uint64_t s, const ChangeRecord& r) { return s < r.seqno; });
    if (it != shard->log.begin()) {
      cursor.positions.push_back(std::prev(it)->shard_seqno);
    } else {
      // Nothing at or before the watermark survives in the log: clamp to
      // the retained head. If records below it postdated `seqno`, the
      // consumer observes the mismatch at apply time and resyncs.
      cursor.positions.push_back(shard->log_head - 1);
    }
  }
  return cursor;
}

Result<ChangeBatch> Database::ReadChanges(const ChangeCursor& cursor,
                                          size_t limit) const {
  if (Status s = fault::Check(faults_, "db", instance_, "changes"); !s.ok()) {
    return s;
  }
  const size_t n = shards_.size();
  ChangeBatch batch;
  batch.next.positions.resize(n);
  for (size_t k = 0; k < n; ++k) batch.next.positions[k] = cursor.at(k);

  // Per shard: the tail past the cursor. One shard contributes at most
  // `limit` records plus the rest of the batch the last of them belongs
  // to, so the tails hold everything the merge below can take. Every shard
  // is read under its lock at once: a batch is applied under all of its
  // shards' locks, so the read holds all of it or none.
  const auto batch_continues = [limit](const std::vector<ChangeRecord>& out,
                                       const ChangeRecord& next) {
    return out.size() < limit ||
           (!out.empty() && next.seqno <= out.back().batch_end);
  };
  std::vector<std::vector<ChangeRecord>> tails(n);
  {
    std::vector<std::shared_lock<std::shared_mutex>> locks;
    locks.reserve(n);
    for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
    for (size_t k = 0; k < n; ++k) {
      const Shard& shard = *shards_[k];
      const uint64_t pos = cursor.at(k);
      if (pos + 1 < shard.log_head) {
        // This shard's records at the cursor were truncated after a
        // checkpoint: withhold the shard (position unmoved) and report the
        // gap; the healthy shards still flow below.
        batch.gap_shards.push_back(static_cast<uint32_t>(k));
        continue;
      }
      auto it = std::lower_bound(
          shard.log.begin(), shard.log.end(), pos + 1,
          [](const ChangeRecord& r, uint64_t s) { return r.shard_seqno < s; });
      for (; it != shard.log.end() && batch_continues(tails[k], *it); ++it) {
        tails[k].push_back(*it);
      }
    }
  }

  // K-way merge by global seqno, up to `limit` and then to the end of the
  // batch it stopped in.
  std::vector<size_t> heads(n, 0);
  for (;;) {
    size_t best = n;
    for (size_t k = 0; k < n; ++k) {
      if (heads[k] >= tails[k].size()) continue;
      if (best == n ||
          tails[k][heads[k]].seqno < tails[best][heads[best]].seqno) {
        best = k;
      }
    }
    if (best == n ||
        !batch_continues(batch.records, tails[best][heads[best]])) {
      break;
    }
    ChangeRecord& rec = tails[best][heads[best]++];
    batch.next.positions[best] = rec.shard_seqno;
    batch.records.push_back(std::move(rec));
  }
  return batch;
}

}  // namespace nagano::db
