// nagano::wal — durable, segmented, append-only write-ahead log with
// checkpoint images (ISSUE 4 tentpole).
//
// The paper's availability story rests on a durable DB2 tier behind the
// caches: a failed complex catches up from the database and rejoins
// serving. Our in-memory nagano::db stand-in loses everything on process
// death; this module is the durability floor beneath it. The database
// appends every commit here *before* making it visible, periodically
// writes a checkpoint (full table image + last applied seqno), and on
// restart rebuilds itself from checkpoint + log tail — the classic
// ARIES-shaped contract, reduced to redo-only because nagano commits never
// abort. A commit writes one frame per stream it touches, so one frame's
// CRC makes a whole multi-record commit atomic on that stream.
//
// On-disk layout (all integers little-endian):
//
//   <dir>/wal-%016x.seg       segments, named by the first LSN they hold
//   <dir>/ckpt-%016x.img      checkpoint images, named by their seqno
//
//   segment  := "NAGWAL01" frame*
//   frame    := u32 payload_len | u32 crc | u64 lsn | u64 seqno | payload
//   ckpt     := "NAGCKPT1" | u32 image_len | u32 crc | u64 lsn | u64 seqno
//               | image
//
// `crc` is CRC32C over [lsn, seqno, payload]. LSNs are the WAL's own dense
// frame numbering (schema records share the committed seqno watermark, so
// seqnos alone cannot order frames); `seqno` is the database watermark the
// frame carries, which drives retention truncation.
//
// Crash semantics: Open() scans every segment in order and truncates the
// log at the first torn frame (short header, impossible length, CRC
// mismatch, or LSN discontinuity), deleting any later segments — recovery
// always equals the longest fully committed prefix, never a torn or
// reordered state. Checkpoints are written to a temp file and renamed into
// place, so a torn checkpoint is simply ignored in favour of the previous
// one.
//
// Fault injection ({"wal", <instance>, op}): "append" kError models a
// crash mid-write — the frame is half-written (a real torn tail) and the
// log wedges until reopened; "fsync" kError fails the sync; "truncate"
// kError fails segment retirement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"

namespace nagano::wal {

// --- binary payload codec ---------------------------------------------------
// Little-endian writer/reader used for WAL payloads and checkpoint images
// (the db-level record encodings live next to the Database).

class Encoder {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  // u32 length prefix + bytes.
  void PutString(std::string_view s);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Reader with sticky failure: any short read flips ok() false and every
// later Get returns zero/empty, so decode loops need one check at the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble();
  std::string GetString();

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- the log ----------------------------------------------------------------

enum class SyncPolicy : uint8_t {
  kPerCommit,    // fsync after every append — durability to the last commit
  kGroupCommit,  // fsync at most once per group_commit_interval; a crash can
                 // lose the unsynced tail but never tears committed frames
};

struct WalOptions : OptionsBase {
  std::string dir;                      // created if absent
  size_t segment_bytes = 4 * 1024 * 1024;
  SyncPolicy sync_policy = SyncPolicy::kPerCommit;
  TimeNs group_commit_interval = FromMillis(5);
  const Clock* clock = nullptr;         // times group commit; nullptr = RealClock
  // Consulted on Append ({"wal", <instance>, "append"}), fsync ("fsync")
  // and segment retirement ("truncate"). Null = injection off.
  fault::FaultInjector* faults = nullptr;
  metrics::Options metrics;

  Status Validate() const;
};

// Counter snapshot (also exported as nagano_wal_*_total).
struct WalStats {
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t bytes_appended = 0;
  uint64_t checkpoints = 0;
  uint64_t segments_created = 0;
  uint64_t segments_deleted = 0;
  uint64_t torn_tails = 0;        // torn frames truncated at Open
  uint64_t torn_bytes_dropped = 0;
};

struct CheckpointImage {
  uint64_t seqno = 0;  // last applied change covered by the image
  uint64_t lsn = 0;    // last WAL frame covered; replay resumes after it
  std::string image;
};

class WriteAheadLog {
 public:
  // Opens (or creates) the log in options.dir: scans existing segments,
  // truncates any torn tail, and positions appends after the last fully
  // committed frame.
  static Result<std::unique_ptr<WriteAheadLog>> Open(WalOptions options);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Durably appends one record. `seqno` is the database watermark the
  // record carries (monotone non-decreasing). Under kPerCommit the frame
  // is fsynced before returning; under kGroupCommit it is synced when the
  // interval elapses (or on Sync()/rotation/checkpoint). An injected
  // append fault leaves a genuinely torn frame on disk and wedges the log
  // — the in-process stand-in for dying mid-write.
  Status Append(uint64_t seqno, std::string_view payload);

  // Forces an fsync of the active segment (group-commit flush).
  Status Sync();

  // Replays every committed frame with lsn > after_lsn, in LSN order.
  // Stops and returns the callback's first error.
  Status Replay(uint64_t after_lsn,
                const std::function<Status(uint64_t lsn, uint64_t seqno,
                                           std::string_view payload)>& apply);

  // Atomically writes a checkpoint image covering everything appended so
  // far (temp file + rename + dir sync). The recorded LSN is the current
  // last_lsn(): callers serialize their state, then call this, without
  // interleaved appends.
  Status WriteCheckpoint(uint64_t seqno, std::string_view image);

  // Newest checkpoint that parses and passes its CRC; torn or corrupt
  // images are skipped in favour of older ones. kNotFound when none.
  Result<CheckpointImage> ReadLatestCheckpoint();

  // Retires sealed segments whose every record has seqno <= through, and
  // all but the two newest checkpoint images. Returns files deleted.
  Result<size_t> TruncateThrough(uint64_t through_seqno);

  // Drops every frame with lsn > `lsn` from disk; appends continue after
  // it. Recovery's rollback of a commit that is not durable on every
  // stream it touched.
  Status TruncateAfter(uint64_t lsn);

  uint64_t last_lsn() const;
  uint64_t last_seqno() const;
  // Bytes dropped from the tail when Open() found a torn frame.
  uint64_t torn_bytes_dropped() const;
  WalStats stats() const;
  const WalOptions& options() const { return options_; }

 private:
  struct Segment {
    std::string path;
    uint64_t first_lsn = 0;   // lsn the segment starts at (== its name)
    uint64_t max_seqno = 0;   // highest watermark it holds
    size_t bytes = 0;
    bool empty = true;
  };

  explicit WriteAheadLog(WalOptions options);

  Status ScanExistingLocked();
  Status OpenActiveLocked();
  Status RotateLocked();
  Status FsyncLocked();
  Status WriteAllLocked(const void* data, size_t n);
  std::string SegmentPath(uint64_t first_lsn) const;
  std::string CheckpointPath(uint64_t seqno) const;

  WalOptions options_;
  const Clock* clock_;
  fault::FaultInjector* faults_;
  std::string instance_;  // fault-injection site name (== metrics label)

  mutable std::mutex mutex_;
  std::vector<Segment> segments_;  // oldest first; back() is active
  int fd_ = -1;                    // active segment
  uint64_t next_lsn_ = 1;
  uint64_t last_seqno_ = 0;
  TimeNs last_sync_ = 0;
  bool dirty_ = false;    // unsynced bytes in the active segment
  bool wedged_ = false;   // torn append injected; reopen to recover
  uint64_t torn_bytes_ = 0;

  metrics::Counter* appends_;
  metrics::Counter* fsyncs_;
  metrics::Counter* bytes_;
  metrics::Counter* checkpoints_;
  metrics::Counter* segments_created_;
  metrics::Counter* segments_deleted_;
  metrics::Counter* torn_tails_;
};

// --- sharded stream set -----------------------------------------------------

// One WAL stream per database shard, opened under a common root:
// <base.dir>/shard-<k>/. Each stream is independent — its own segments,
// checkpoints, fsync schedule, and fault-injection instance
// ("<base instance>/s<k>"), so a torn tail or injected fault wedges one
// shard's stream without touching its siblings.
struct ShardWalSet {
  std::vector<std::unique_ptr<WriteAheadLog>> wals;

  // Borrowed pointers in shard order, shaped for DatabaseOptions.shard_wals.
  std::vector<WriteAheadLog*> pointers() const {
    std::vector<WriteAheadLog*> out;
    out.reserve(wals.size());
    for (const auto& w : wals) out.push_back(w.get());
    return out;
  }
};

Result<ShardWalSet> OpenShardWals(WalOptions base, size_t shards);

}  // namespace nagano::wal
