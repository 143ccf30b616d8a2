#include "serve/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "serve/metrics.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/fsio.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace misuse::serve {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x504e5357u;  // "WSNP"
constexpr std::uint32_t kSnapshotVersion = 1;
constexpr std::uint32_t kManifestMagic = 0x4e414d57u;  // "WMAN"
constexpr std::uint32_t kManifestVersion = 1;
/// A WAL record is one event (a few short strings); anything past this
/// length is framing corruption, not data.
constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

// Encoding appends straight into a std::string (same byte layout as
// BinaryWriter: host little-endian scalars, u64-length-prefixed strings).
// This sits on the per-event hot path, so no ostringstream round-trips.
template <typename T>
void put(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void put_string(std::string& out, const std::string& s) {
  put<std::uint64_t>(out, s.size());
  out.append(s);
}

std::string frame(const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 2 * sizeof(std::uint32_t));
  put<std::uint32_t>(framed, static_cast<std::uint32_t>(payload.size()));
  framed.append(payload);
  put<std::uint32_t>(framed, crc32(payload));
  return framed;
}

/// Decodes one CRC-verified frame payload. False on a malformed payload
/// (unknown type or truncated fields) — framing corruption, not data.
bool decode_payload(std::string_view payload, WalRecord& record) {
  std::istringstream payload_in{std::string(payload), std::ios::binary};
  BinaryReader r(payload_in);
  try {
    record.type = r.read<std::uint8_t>();
    record.seq = r.read<std::uint64_t>();
    if (record.type == WalRecord::kEvent) {
      record.event.user_id = r.read_string();
      record.event.session_id = r.read_string();
      record.event.action = r.read_string();
      record.event.has_timestamp = r.read<std::uint8_t>() != 0;
      record.event.timestamp = r.read<double>();
    } else if (record.type == WalRecord::kSweep) {
      record.sweep_now = r.read<double>();
    } else {
      return false;
    }
  } catch (const SerializeError&) {
    return false;
  }
  return true;
}

/// Scans `bytes` from offset 0 for complete, CRC-intact frames, appending
/// the decoded records. Returns the number of bytes covered by complete
/// frames — the only bytes a cursor may advance past; anything after is a
/// (possibly still-being-written) tail.
std::size_t scan_frames(std::string_view bytes, std::vector<WalRecord>& records) {
  std::size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    if (len > kMaxRecordBytes || pos + 8 + len > bytes.size()) break;
    const std::string_view payload(bytes.data() + pos + 4, len);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + pos + 4 + len, sizeof(stored));
    if (crc32(payload) != stored) break;
    WalRecord record;
    if (!decode_payload(payload, record)) break;
    records.push_back(std::move(record));
    pos += 8 + len;
  }
  return pos;
}

}  // namespace

std::string encode_event_record(const Event& event, std::uint64_t seq) {
  std::string payload;
  payload.reserve(4 * sizeof(std::uint64_t) + 2 + event.user_id.size() +
                  event.session_id.size() + event.action.size() + sizeof(double));
  put<std::uint8_t>(payload, WalRecord::kEvent);
  put<std::uint64_t>(payload, seq);
  put_string(payload, event.user_id);
  put_string(payload, event.session_id);
  put_string(payload, event.action);
  put<std::uint8_t>(payload, event.has_timestamp ? 1 : 0);
  put<double>(payload, event.timestamp);
  return frame(payload);
}

std::string encode_sweep_record(double now, std::uint64_t seq) {
  std::string payload;
  put<std::uint8_t>(payload, WalRecord::kSweep);
  put<std::uint64_t>(payload, seq);
  put<double>(payload, now);
  return frame(payload);
}

WalWriter::WalWriter(std::string path, std::size_t sync_every)
    : path_(std::move(path)), sync_every_(std::max<std::size_t>(1, sync_every)) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    log_warn() << "cannot open WAL " << path_ << ": " << std::strerror(errno)
               << "; continuing without durability for this log";
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    flush();
    ::fsync(fd_);
    ::close(fd_);
  }
}

bool WalWriter::append(const std::string& framed) {
  if (fd_ < 0) return false;
  if (MISUSEDET_FAILPOINT("wal.append")) {
    log_warn() << "WAL append failed on " << path_ << "; record not durable";
    return false;
  }
  buffer_.append(framed);
  serve_metrics().wal_appends.inc();
  bool ok = true;
  // Cap the group-commit buffer so a huge drain cannot hold an unbounded
  // backlog of unlogged-but-applied records in user space.
  if (buffer_.size() >= (std::size_t{256} << 10)) ok = flush();
  if (++appends_since_sync_ >= sync_every_) sync();
  return ok;
}

bool WalWriter::flush() {
  if (buffer_.empty()) return true;
  if (fd_ < 0) {
    buffer_.clear();
    return false;
  }
  const bool ok = write_fully(fd_, buffer_.data(), buffer_.size());
  if (!ok) log_warn() << "WAL write failed on " << path_ << "; records not durable";
  buffer_.clear();
  return ok;
}

void WalWriter::sync() {
  appends_since_sync_ = 0;
  flush();
  if (fd_ < 0) return;
  if (MISUSEDET_FAILPOINT("wal.fsync")) {
    log_warn() << "WAL fsync skipped on " << path_ << " (injected failure)";
    return;
  }
  ::fsync(fd_);
}

void WalWriter::reset() {
  appends_since_sync_ = 0;
  buffer_.clear();
  if (fd_ < 0) return;
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    log_warn() << "cannot truncate WAL " << path_ << ": " << std::strerror(errno);
  }
}

std::vector<WalRecord> read_wal(const std::string& path) {
  std::vector<WalRecord> records;
  std::ifstream in(path, std::ios::binary);
  if (!in) return records;
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string bytes = raw.str();

  const std::size_t pos = scan_frames(bytes, records);
  if (pos < bytes.size()) {
    serve_metrics().wal_torn_records.inc();
    log_warn() << "WAL " << path << ": torn tail after " << records.size()
               << " intact records (" << (bytes.size() - pos) << " trailing bytes dropped)";
  }
  return records;
}

WalTailer::WalTailer(std::string dir) : dir_(std::move(dir)) {}

std::size_t WalTailer::poll(std::vector<WalRecord>& out) {
  const auto shards = read_manifest(dir_);
  if (!shards || *shards == 0) return 0;  // server not started yet — retry later
  if (offsets_.size() != *shards) {
    // First poll, or the server restarted with a different shard layout.
    // Cursors restart at 0; the new shards' watermarks seed from the
    // global high-water mark so a recovery replay (which re-logs records
    // under their original seqs) is not re-delivered.
    offsets_.assign(*shards, 0);
    watermarks_.assign(*shards, last_seq_);
  }

  std::vector<WalRecord> fresh;
  for (std::size_t k = 0; k < *shards; ++k) {
    std::ifstream in(wal_path(dir_, k), std::ios::binary);
    if (!in) continue;
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    if (end < 0) continue;
    const auto size = static_cast<std::uint64_t>(end);
    // Shrunk file = a checkpoint truncated the log. Everything it covered
    // was polled before the truncation; restart from the top and let the
    // shard's seq watermark drop any overlap.
    if (size < offsets_[k]) offsets_[k] = 0;
    if (size == offsets_[k]) continue;
    in.seekg(static_cast<std::streamoff>(offsets_[k]));
    std::string bytes(static_cast<std::size_t>(size - offsets_[k]), '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(in.gcount()));

    std::vector<WalRecord> shard_records;
    // Only complete, intact frames advance the cursor: a torn tail (the
    // writer mid-append) stays in place and is retried whole next poll.
    offsets_[k] += scan_frames(bytes, shard_records);
    // Dedup is per shard — each shard's log is seq-ascending, but the
    // shards flush independently, so a *global* watermark could drop a
    // lagging shard's records that are merely younger on disk.
    for (auto& record : shard_records) {
      if (record.seq > watermarks_[k]) {
        watermarks_[k] = record.seq;
        fresh.push_back(std::move(record));
      }
    }
  }
  if (fresh.empty()) return 0;
  // Each shard's log is seq-ascending (events apply in arrival order), so
  // a stable sort merges the shard streams into global input order.
  std::stable_sort(fresh.begin(), fresh.end(),
                   [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });
  for (const auto& record : fresh) last_seq_ = std::max(last_seq_, record.seq);
  const std::size_t added = fresh.size();
  out.insert(out.end(), std::make_move_iterator(fresh.begin()),
             std::make_move_iterator(fresh.end()));
  return added;
}

bool write_snapshot(const std::string& path, const ShardSnapshot& snapshot) {
  std::ostringstream buffer(std::ios::binary);
  BinaryWriter w(buffer);
  w.begin_crc();
  w.write_magic(kSnapshotMagic, kSnapshotVersion);
  w.write<std::uint64_t>(snapshot.watermark);
  w.write<double>(snapshot.clock);
  w.write<std::uint64_t>(snapshot.sessions.size());
  for (const auto& session : snapshot.sessions) {
    w.write_string(session.user_id);
    w.write_string(session.session_id);
    w.write_vector(std::span<const int>(session.actions));
    w.write<double>(session.last_seen);
  }
  const std::uint32_t crc = w.crc();
  w.write<std::uint32_t>(crc);
  if (MISUSEDET_FAILPOINT("wal.snapshot") || !write_file_atomic(path, buffer.str())) {
    serve_metrics().snapshot_failures.inc();
    log_warn() << "snapshot write failed: " << path;
    return false;
  }
  return true;
}

std::optional<ShardSnapshot> read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    BinaryReader r(in);
    r.begin_crc();
    r.read_magic(kSnapshotMagic);
    ShardSnapshot snapshot;
    snapshot.watermark = r.read<std::uint64_t>();
    snapshot.clock = r.read<double>();
    const auto n = r.read<std::uint64_t>();
    if (n > (1ULL << 24)) throw SerializeError("implausible snapshot session count");
    for (std::uint64_t i = 0; i < n; ++i) {
      SessionSnapshot session;
      session.user_id = r.read_string();
      session.session_id = r.read_string();
      session.actions = r.read_vector<int>();
      session.last_seen = r.read<double>();
      snapshot.sessions.push_back(std::move(session));
    }
    const std::uint32_t computed = r.crc();
    const std::uint32_t stored = r.read<std::uint32_t>();
    if (computed != stored) throw SerializeError("snapshot CRC mismatch");
    return snapshot;
  } catch (const SerializeError& e) {
    log_warn() << "snapshot " << path << " unusable (" << e.what()
               << "); falling back to WAL replay";
    return std::nullopt;
  }
}

bool write_manifest(const std::string& dir, std::size_t shards) {
  std::ostringstream buffer(std::ios::binary);
  BinaryWriter w(buffer);
  w.write_magic(kManifestMagic, kManifestVersion);
  w.write<std::uint64_t>(shards);
  return write_file_atomic(dir + "/MANIFEST", buffer.str());
}

std::optional<std::size_t> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST", std::ios::binary);
  if (!in) return std::nullopt;
  try {
    BinaryReader r(in);
    r.read_magic(kManifestMagic);
    return static_cast<std::size_t>(r.read<std::uint64_t>());
  } catch (const SerializeError& e) {
    log_warn() << "WAL manifest unreadable (" << e.what() << ")";
    return std::nullopt;
  }
}

std::string wal_path(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".wal";
}

std::string snapshot_path(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".snap";
}

void remove_stale_shard_files(const std::string& dir, std::size_t shards) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const auto dot = name.find_last_of('.');
    if (dot == std::string::npos) continue;
    const std::string ext = name.substr(dot);
    if (ext != ".wal" && ext != ".snap") continue;
    std::size_t index = 0;
    try {
      index = static_cast<std::size_t>(std::stoull(name.substr(6, dot - 6)));
    } catch (const std::exception&) {
      continue;
    }
    if (index >= shards) std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace misuse::serve
