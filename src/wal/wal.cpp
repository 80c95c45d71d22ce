#include "wal/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/crc32c.h"

namespace nagano::wal {
namespace {

constexpr char kSegmentMagic[8] = {'N', 'A', 'G', 'W', 'A', 'L', '0', '1'};
constexpr char kCkptMagic[8] = {'N', 'A', 'G', 'C', 'K', 'P', 'T', '1'};
constexpr size_t kMagicLen = 8;
// u32 payload_len | u32 crc | u64 lsn | u64 seqno
constexpr size_t kFrameHeader = 4 + 4 + 8 + 8;
// Far beyond any real record; a length above this means a torn/garbage
// header, not a huge payload.
constexpr uint32_t kMaxPayload = 64u * 1024 * 1024;

void PutLE32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

void PutLE64(char* p, uint64_t v) {
  PutLE32(p, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutLE32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetLE32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetLE64(const char* p) {
  return static_cast<uint64_t>(GetLE32(p)) |
         (static_cast<uint64_t>(GetLE32(p + 4)) << 32);
}

Status ErrnoError(std::string what) {
  return UnavailableError(std::move(what) + ": " + std::strerror(errno));
}

// fsync the directory so created/renamed/unlinked entries are durable.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("fsync dir " + dir);
  return Status::Ok();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("open " + path);
  std::string data;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoError("read " + path);
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

// Parses "wal-%016x.seg" / "ckpt-%016x.img"; nullopt for foreign names.
std::optional<uint64_t> ParseHexName(std::string_view name,
                                     std::string_view prefix,
                                     std::string_view suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(prefix.size() + 16) != suffix) return std::nullopt;
  uint64_t v = 0;
  for (char c : name.substr(prefix.size(), 16)) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return v;
}

std::vector<std::pair<uint64_t, std::string>> ListByPrefix(
    const std::string& dir, std::string_view prefix, std::string_view suffix) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (auto v = ParseHexName(name, prefix, suffix)) {
      out.emplace_back(*v, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct FrameView {
  uint64_t lsn = 0;
  uint64_t seqno = 0;
  std::string_view payload;
  size_t frame_bytes = 0;  // header + payload
};

// Parses the frame at data[off..]; nullopt means torn/invalid (the caller
// truncates there).
std::optional<FrameView> ParseFrame(std::string_view data, size_t off) {
  if (data.size() - off < kFrameHeader) return std::nullopt;
  const char* p = data.data() + off;
  const uint32_t len = GetLE32(p);
  if (len > kMaxPayload) return std::nullopt;
  if (data.size() - off - kFrameHeader < len) return std::nullopt;
  const uint32_t crc = GetLE32(p + 4);
  // CRC covers [lsn, seqno, payload] — the bytes right after the crc field.
  if (Crc32cExtend(0, p + 8, 16 + len) != crc) return std::nullopt;
  FrameView f;
  f.lsn = GetLE64(p + 8);
  f.seqno = GetLE64(p + 16);
  f.payload = data.substr(off + kFrameHeader, len);
  f.frame_bytes = kFrameHeader + len;
  return f;
}

}  // namespace

// --- codec ------------------------------------------------------------------

void Encoder::PutU32(uint32_t v) {
  char buf[4];
  PutLE32(buf, v);
  out_.append(buf, sizeof(buf));
}

void Encoder::PutU64(uint64_t v) {
  char buf[8];
  PutLE64(buf, v);
  out_.append(buf, sizeof(buf));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

bool Decoder::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Decoder::GetU8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t Decoder::GetU32() {
  if (!Need(4)) return 0;
  const uint32_t v = GetLE32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t Decoder::GetU64() {
  if (!Need(8)) return 0;
  const uint64_t v = GetLE64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

double Decoder::GetDouble() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Decoder::GetString() {
  const uint32_t len = GetU32();
  if (!Need(len)) return {};
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// --- options ----------------------------------------------------------------

Status WalOptions::Validate() const {
  if (dir.empty()) return InvalidArgumentError("WalOptions: dir is empty");
  if (segment_bytes < kMagicLen + kFrameHeader) {
    return InvalidArgumentError("WalOptions: segment_bytes too small");
  }
  if (sync_policy == SyncPolicy::kGroupCommit && group_commit_interval < 0) {
    return InvalidArgumentError(
        "WalOptions: group_commit_interval must be >= 0");
  }
  return Status::Ok();
}

// --- the log ----------------------------------------------------------------

WriteAheadLog::WriteAheadLog(WalOptions options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()),
      faults_(options_.faults) {
  const auto scope = metrics::Scope::Resolve(options_.metrics, "wal");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  appends_ = scope.GetCounter("nagano_wal_appends_total",
                              "records appended to the write-ahead log");
  fsyncs_ = scope.GetCounter("nagano_wal_fsyncs_total",
                             "fsync calls on WAL segments");
  bytes_ = scope.GetCounter("nagano_wal_bytes_total",
                            "bytes appended to the write-ahead log");
  checkpoints_ = scope.GetCounter("nagano_wal_checkpoints_total",
                                  "checkpoint images written");
  segments_created_ = scope.GetCounter("nagano_wal_segments_created_total",
                                       "WAL segment files created");
  segments_deleted_ = scope.GetCounter("nagano_wal_segments_deleted_total",
                                       "WAL segment files retired");
  torn_tails_ = scope.GetCounter(
      "nagano_wal_torn_tails_total",
      "torn frames truncated from the log tail at open");
}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (dirty_ && !wedged_) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(WalOptions options) {
  if (Status s = options.Validate(); !s.ok()) return s;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return UnavailableError("WAL: cannot create dir " + options.dir + ": " +
                            ec.message());
  }
  auto log = std::unique_ptr<WriteAheadLog>(new WriteAheadLog(std::move(options)));
  std::unique_lock<std::mutex> lock(log->mutex_);
  if (Status s = log->ScanExistingLocked(); !s.ok()) return s;
  if (Status s = log->OpenActiveLocked(); !s.ok()) return s;
  log->last_sync_ = log->clock_->Now();
  lock.unlock();
  return log;
}

std::string WriteAheadLog::SegmentPath(uint64_t first_lsn) const {
  char name[48];
  std::snprintf(name, sizeof(name), "wal-%016" PRIx64 ".seg", first_lsn);
  return options_.dir + "/" + name;
}

std::string WriteAheadLog::CheckpointPath(uint64_t seqno) const {
  char name[48];
  std::snprintf(name, sizeof(name), "ckpt-%016" PRIx64 ".img", seqno);
  return options_.dir + "/" + name;
}

// Walks every segment in LSN order, validating magic, CRC and dense LSN
// continuity; the log is truncated at the first torn frame and any later
// segments are deleted — recovery state is exactly the longest fully
// committed prefix.
Status WriteAheadLog::ScanExistingLocked() {
  const auto files = ListByPrefix(options_.dir, "wal-", ".seg");
  // Older segments may have been retired by TruncateThrough, so numbering
  // picks up wherever the oldest surviving segment starts.
  if (!files.empty()) next_lsn_ = files.front().first;
  bool torn = false;
  for (size_t i = 0; i < files.size(); ++i) {
    const auto& [first_lsn, path] = files[i];
    if (torn) {
      // Everything after a torn frame was never acknowledged; drop it.
      std::error_code ec;
      const auto sz = std::filesystem::file_size(path, ec);
      if (!ec) torn_bytes_ += sz;
      std::filesystem::remove(path, ec);
      segments_deleted_->Increment();
      continue;
    }
    auto data_or = ReadWholeFile(path);
    if (!data_or.ok()) return data_or.status();
    const std::string& data = data_or.value();

    Segment seg;
    seg.path = path;
    seg.first_lsn = first_lsn;
    size_t valid = 0;
    if (data.size() >= kMagicLen &&
        std::memcmp(data.data(), kSegmentMagic, kMagicLen) == 0 &&
        first_lsn == next_lsn_) {
      valid = kMagicLen;
      size_t off = kMagicLen;
      while (off < data.size()) {
        auto frame = ParseFrame(data, off);
        if (!frame || frame->lsn != next_lsn_ ||
            frame->seqno < last_seqno_) {
          break;
        }
        next_lsn_ = frame->lsn + 1;
        last_seqno_ = frame->seqno;
        seg.max_seqno = frame->seqno;
        seg.empty = false;
        off += frame->frame_bytes;
        valid = off;
      }
    } else if (first_lsn != next_lsn_) {
      // A hole in the segment sequence (manual deletion / foreign file):
      // refuse rather than silently replay a gapped log.
      return DataLossError("WAL: segment " + path + " breaks LSN continuity");
    }

    if (valid < data.size() || valid == 0) {
      torn = true;
      torn_tails_->Increment();
      torn_bytes_ += data.size() - valid;
      if (valid == 0) {
        // Even the magic was torn; the file holds nothing committed.
        std::error_code ec;
        std::filesystem::remove(path, ec);
        segments_deleted_->Increment();
        continue;
      }
      if (::truncate(path.c_str(), static_cast<off_t>(valid)) != 0) {
        return ErrnoError("WAL: truncate torn tail of " + path);
      }
    }
    seg.bytes = valid;
    segments_.push_back(std::move(seg));
  }
  return Status::Ok();
}

Status WriteAheadLog::OpenActiveLocked() {
  if (segments_.empty()) {
    return RotateLocked();  // creates wal-<next_lsn_>.seg
  }
  const std::string& path = segments_.back().path;
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return ErrnoError("WAL: reopen " + path);
  return Status::Ok();
}

// Seals the active segment (fsync + close) and starts a fresh one named by
// the next LSN.
Status WriteAheadLog::RotateLocked() {
  if (fd_ >= 0) {
    if (Status s = FsyncLocked(); !s.ok()) return s;
    ::close(fd_);
    fd_ = -1;
  }
  Segment seg;
  seg.first_lsn = next_lsn_;
  seg.path = SegmentPath(next_lsn_);
  fd_ = ::open(seg.path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd_ < 0) return ErrnoError("WAL: create " + seg.path);
  if (Status s = WriteAllLocked(kSegmentMagic, kMagicLen); !s.ok()) return s;
  seg.bytes = kMagicLen;
  segments_.push_back(std::move(seg));
  segments_created_->Increment();
  dirty_ = true;
  return SyncDir(options_.dir);
}

Status WriteAheadLog::WriteAllLocked(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("WAL: write");
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status WriteAheadLog::FsyncLocked() {
  if (Status s = fault::Check(faults_, "wal", instance_, "fsync"); !s.ok()) {
    return s;
  }
  if (fd_ >= 0 && dirty_) {
    if (::fsync(fd_) != 0) return ErrnoError("WAL: fsync");
    fsyncs_->Increment();
    dirty_ = false;
    last_sync_ = clock_->Now();
  }
  return Status::Ok();
}

Status WriteAheadLog::Append(uint64_t seqno, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wedged_) {
    return FailedPreconditionError(
        "WAL: wedged by an injected torn append; reopen to recover");
  }
  if (seqno < last_seqno_) {
    return InvalidArgumentError("WAL: seqno watermark went backwards");
  }
  const size_t frame_bytes = kFrameHeader + payload.size();
  if (!segments_.back().empty &&
      segments_.back().bytes + frame_bytes > options_.segment_bytes) {
    if (Status s = RotateLocked(); !s.ok()) return s;
  }

  const uint64_t lsn = next_lsn_;
  std::string frame(frame_bytes, '\0');
  PutLE32(frame.data(), static_cast<uint32_t>(payload.size()));
  PutLE64(frame.data() + 8, lsn);
  PutLE64(frame.data() + 16, seqno);
  std::memcpy(frame.data() + kFrameHeader, payload.data(), payload.size());
  PutLE32(frame.data() + 4,
          Crc32cExtend(0, frame.data() + 8, 16 + payload.size()));

  if (Status s = fault::Check(faults_, "wal", instance_, "append"); !s.ok()) {
    // Model a crash mid-write: leave a genuinely torn frame on disk (header
    // plus a prefix of the payload — short of what the header promises) and
    // wedge the log. Only a reopen (which truncates the tear) recovers.
    const size_t partial =
        payload.empty() ? kFrameHeader / 2 : kFrameHeader + payload.size() / 2;
    (void)WriteAllLocked(frame.data(), partial);
    wedged_ = true;
    dirty_ = true;
    return s;
  }

  if (Status s = WriteAllLocked(frame.data(), frame.size()); !s.ok()) return s;
  next_lsn_ = lsn + 1;
  last_seqno_ = seqno;
  Segment& active = segments_.back();
  active.bytes += frame.size();
  active.max_seqno = seqno;
  active.empty = false;
  dirty_ = true;
  appends_->Increment();
  bytes_->Increment(frame.size());

  switch (options_.sync_policy) {
    case SyncPolicy::kPerCommit:
      return FsyncLocked();
    case SyncPolicy::kGroupCommit:
      if (clock_->Now() - last_sync_ >= options_.group_commit_interval) {
        return FsyncLocked();
      }
      return Status::Ok();
  }
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wedged_) {
    return FailedPreconditionError("WAL: wedged; reopen to recover");
  }
  return FsyncLocked();
}

Status WriteAheadLog::Replay(
    uint64_t after_lsn,
    const std::function<Status(uint64_t, uint64_t, std::string_view)>& apply) {
  // Snapshot the segment list under the lock, then read files without it:
  // segments are append-only and replay happens before serving starts.
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& seg : segments_) paths.push_back(seg.path);
  }
  for (const auto& path : paths) {
    auto data_or = ReadWholeFile(path);
    if (!data_or.ok()) return data_or.status();
    const std::string& data = data_or.value();
    size_t off = kMagicLen;
    while (off < data.size()) {
      auto frame = ParseFrame(data, off);
      if (!frame) {
        return DataLossError("WAL: torn frame during replay in " + path);
      }
      if (frame->lsn > after_lsn) {
        if (Status s = apply(frame->lsn, frame->seqno, frame->payload);
            !s.ok()) {
          return s;
        }
      }
      off += frame->frame_bytes;
    }
  }
  return Status::Ok();
}

Status WriteAheadLog::WriteCheckpoint(uint64_t seqno, std::string_view image) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wedged_) {
    return FailedPreconditionError("WAL: wedged; reopen to recover");
  }
  // The image must cover every frame already appended, so sync them first:
  // a checkpoint that outlives its log prefix would silently lose the
  // unsynced tail it claims to cover.
  if (Status s = FsyncLocked(); !s.ok()) return s;

  const uint64_t lsn = next_lsn_ - 1;
  std::string blob;
  blob.reserve(kMagicLen + kFrameHeader + image.size());
  blob.append(kCkptMagic, kMagicLen);
  char header[kFrameHeader];
  PutLE32(header, static_cast<uint32_t>(image.size()));
  PutLE64(header + 8, lsn);
  PutLE64(header + 16, seqno);
  uint32_t crc = Crc32cExtend(0, header + 8, 16);
  crc = Crc32cExtend(crc, image.data(), image.size());
  PutLE32(header + 4, crc);
  blob.append(header, kFrameHeader);
  blob.append(image);

  const std::string path = CheckpointPath(seqno);
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("WAL: create " + tmp);
  size_t n = blob.size();
  const char* p = blob.data();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoError("WAL: write " + tmp);
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return ErrnoError("WAL: fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoError("WAL: rename " + tmp);
  }
  if (Status s = SyncDir(options_.dir); !s.ok()) return s;
  checkpoints_->Increment();
  return Status::Ok();
}

Result<CheckpointImage> WriteAheadLog::ReadLatestCheckpoint() {
  auto files = ListByPrefix(options_.dir, "ckpt-", ".img");
  // Newest first; fall back on corruption.
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    auto data_or = ReadWholeFile(it->second);
    if (!data_or.ok()) continue;
    const std::string& data = data_or.value();
    if (data.size() < kMagicLen + kFrameHeader ||
        std::memcmp(data.data(), kCkptMagic, kMagicLen) != 0) {
      continue;
    }
    const char* h = data.data() + kMagicLen;
    const uint32_t len = GetLE32(h);
    if (data.size() - kMagicLen - kFrameHeader != len) continue;
    uint32_t crc = Crc32cExtend(0, h + 8, 16);
    crc = Crc32cExtend(crc, h + kFrameHeader, len);
    if (crc != GetLE32(h + 4)) continue;
    CheckpointImage img;
    img.lsn = GetLE64(h + 8);
    img.seqno = GetLE64(h + 16);
    img.image.assign(h + kFrameHeader, len);
    return img;
  }
  return NotFoundError("WAL: no valid checkpoint in " + options_.dir);
}

Result<size_t> WriteAheadLog::TruncateThrough(uint64_t through_seqno) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status s = fault::Check(faults_, "wal", instance_, "truncate"); !s.ok()) {
    return s;
  }
  size_t deleted = 0;
  // Sealed segments only (back() is active); a segment is retirable when
  // every record it holds is covered by the checkpoint watermark.
  while (segments_.size() > 1 && !segments_.front().empty &&
         segments_.front().max_seqno <= through_seqno) {
    std::error_code ec;
    std::filesystem::remove(segments_.front().path, ec);
    if (ec) {
      return UnavailableError("WAL: remove " + segments_.front().path + ": " +
                              ec.message());
    }
    segments_.erase(segments_.begin());
    segments_deleted_->Increment();
    ++deleted;
  }
  // Keep the two newest checkpoint images: the newest, plus one fallback in
  // case the newest turns out unreadable on the next open.
  auto ckpts = ListByPrefix(options_.dir, "ckpt-", ".img");
  while (ckpts.size() > 2) {
    std::error_code ec;
    std::filesystem::remove(ckpts.front().second, ec);
    if (!ec) ++deleted;
    ckpts.erase(ckpts.begin());
  }
  if (deleted > 0) {
    if (Status s = SyncDir(options_.dir); !s.ok()) return s;
  }
  return deleted;
}

Status WriteAheadLog::TruncateAfter(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lsn + 1 >= next_lsn_) return Status::Ok();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Segments are named by their first LSN: the ones starting past lsn + 1
  // go whole, and the one holding lsn + 1 is cut at that frame.
  while (segments_.size() > 1 && segments_.back().first_lsn > lsn + 1) {
    std::error_code ec;
    std::filesystem::remove(segments_.back().path, ec);
    if (ec) {
      return UnavailableError("WAL: remove " + segments_.back().path + ": " +
                              ec.message());
    }
    segments_.pop_back();
    segments_deleted_->Increment();
  }
  const std::string path = segments_.back().path;
  auto data_or = ReadWholeFile(path);
  if (!data_or.ok()) return data_or.status();
  const std::string& data = data_or.value();
  size_t off = kMagicLen;
  while (off < data.size()) {
    const auto frame = ParseFrame(data, off);
    if (!frame || frame->lsn > lsn) break;
    off += frame->frame_bytes;
  }
  if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0) {
    return ErrnoError("WAL: truncate " + path);
  }
  // Rebuild the in-memory view from disk, exactly as Open() does.
  const uint64_t torn = torn_bytes_;
  segments_.clear();
  next_lsn_ = 1;
  last_seqno_ = 0;
  if (Status s = ScanExistingLocked(); !s.ok()) return s;
  torn_bytes_ = torn;
  if (Status s = OpenActiveLocked(); !s.ok()) return s;
  if (::fsync(fd_) != 0) return ErrnoError("WAL: fsync " + path);
  return SyncDir(options_.dir);
}

uint64_t WriteAheadLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lsn_ - 1;
}

uint64_t WriteAheadLog::last_seqno() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_seqno_;
}

uint64_t WriteAheadLog::torn_bytes_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return torn_bytes_;
}

WalStats WriteAheadLog::stats() const {
  WalStats s;
  s.appends = appends_->value();
  s.fsyncs = fsyncs_->value();
  s.bytes_appended = bytes_->value();
  s.checkpoints = checkpoints_->value();
  s.segments_created = segments_created_->value();
  s.segments_deleted = segments_deleted_->value();
  s.torn_tails = torn_tails_->value();
  std::lock_guard<std::mutex> lock(mutex_);
  s.torn_bytes_dropped = torn_bytes_;
  return s;
}

Result<ShardWalSet> OpenShardWals(WalOptions base, size_t shards) {
  if (shards == 0) {
    return InvalidArgumentError("OpenShardWals: shards must be >= 1");
  }
  ShardWalSet set;
  set.wals.reserve(shards);
  for (size_t k = 0; k < shards; ++k) {
    WalOptions stream = base;
    stream.dir = base.dir + "/shard-" + std::to_string(k);
    if (!stream.metrics.instance.empty()) {
      stream.metrics.instance = base.metrics.instance + "/s" + std::to_string(k);
    }
    auto wal = WriteAheadLog::Open(std::move(stream));
    if (!wal.ok()) return wal.status();
    set.wals.push_back(std::move(wal).value());
  }
  return set;
}

}  // namespace nagano::wal
