// Crash safety for the streaming scoring server (see DESIGN.md "Fault
// tolerance"). Two artifacts, both living in --wal-dir:
//
//   * shard-0.wal — a write-ahead log of the *applied* event stream.
//     Every record is framed [u32 len][payload][u32 crc32(payload)], so a
//     torn tail (crash mid-append) is detected and dropped at recovery
//     instead of poisoning the replay. Events are logged immediately
//     before they are applied to the session table, so the WAL is exactly
//     the sequence of scored actions; lines that were read but not yet
//     scored are the (documented) at-most-once durability boundary.
//   * shard-0.snap — a periodic snapshot of the session table:
//     per session the raw action history, from which the deterministic
//     OnlineMonitor state is rebuilt by re-feeding. The snapshot's
//     watermark is the last applied sequence number it covers; recovery
//     replays only WAL records past it.
//
// A MANIFEST file records how many shard-<k> pairs wrote the directory (a
// node writes 1; older nodes wrote one per session shard), so a node
// recovers any older layout: every file is read as data, merged globally
// by sequence number, and re-checkpointed as shard-0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/event.hpp"

namespace misuse::serve {

/// One decoded WAL record.
struct WalRecord {
  enum Type : std::uint8_t {
    kEvent = 1,  // one applied input event
    kSweep = 2,  // a TTL sweep ran at event time `sweep_now`
  };
  std::uint8_t type = kEvent;
  std::uint64_t seq = 0;
  Event event;             // kEvent only
  double sweep_now = 0.0;  // kSweep only
};

/// Encodes records into the framed wire form WalWriter appends.
std::string encode_event_record(const Event& event, std::uint64_t seq);
std::string encode_sweep_record(double now, std::uint64_t seq);

/// Appends framed records to one log via a POSIX fd (O_APPEND),
/// with full-write EINTR retry and an fsync every `sync_every` appends.
/// Failpoints: "wal.append" fails the append, "wal.fsync" skips the sync.
class WalWriter {
 public:
  WalWriter(std::string path, std::size_t sync_every);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one pre-encoded record (group commit: the write syscall is
  /// deferred to flush()/sync(), which the server calls before a batch's
  /// verdicts become externally visible). Returns false (and logs) on an
  /// I/O failure — the server keeps scoring; durability degrades, not
  /// availability.
  bool append(const std::string& framed);

  /// Hands every buffered record to the OS in one write. Once written,
  /// records survive a process crash (the page cache outlives the
  /// process); sync() additionally survives a machine crash.
  bool flush();

  /// flush() plus fsync: everything appended so far is on stable storage.
  void sync();

  /// Truncates the log to empty (after a snapshot covers its contents).
  void reset();

  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string buffer_;
  int fd_ = -1;
  std::size_t sync_every_;
  std::size_t appends_since_sync_ = 0;
};

/// Reads every intact record of one log; a torn or corrupt tail
/// stops the scan cleanly (counted in serve.wal_torn_records). A missing
/// file reads as empty.
std::vector<WalRecord> read_wal(const std::string& path);

/// Incremental reader over a live serve node's WAL directory — the
/// continuous-learning collector's event source. Each poll() decodes the
/// records appended to every shard log since the previous poll and
/// returns them merged ascending by sequence number. Designed to run
/// beside a writing server:
///   * per-shard byte cursors only ever advance past *complete, CRC-intact*
///     frames — a torn tail (the writer mid-append) is left in place and
///     retried whole on the next poll, never skipped;
///   * a shard file that shrank (checkpoint truncation) resets its cursor
///     to the start; records covered by the checkpoint were already
///     polled, and re-reads are dropped by the shard's seq watermark;
///   * the MANIFEST is re-read until it appears, so the tailer may start
///     before the server writes its first record.
/// Duplicate suppression is by seq watermark, so feed one tailer one
/// directory for its whole life.
class WalTailer {
 public:
  explicit WalTailer(std::string dir);

  /// Appends records not yet observed (ascending seq) to `out`; returns
  /// how many were appended.
  std::size_t poll(std::vector<WalRecord>& out);

  /// Highest sequence number observed so far.
  std::uint64_t last_seq() const { return last_seq_; }

 private:
  std::string dir_;
  std::vector<std::uint64_t> offsets_;     // per-shard byte cursor
  std::vector<std::uint64_t> watermarks_;  // per-shard max seq delivered
  std::uint64_t last_seq_ = 0;
};

/// Snapshot of one session: the raw applied action history (the
/// deterministic monitor state is rebuilt by re-feeding it) plus the
/// event-time the session was last seen.
struct SessionSnapshot {
  std::string user_id;
  std::string session_id;
  std::vector<int> actions;
  double last_seen = 0.0;
};

/// Snapshot of a session table at a checkpoint.
struct ShardSnapshot {
  /// Every applied event with seq <= watermark is reflected here; WAL
  /// replay starts strictly after it.
  std::uint64_t watermark = 0;
  double clock = 0.0;  // table event clock
  std::vector<SessionSnapshot> sessions;
};

/// Atomically writes a snapshot (tmp + fsync + rename) with a
/// whole-file CRC footer. Returns false on failure (counted in
/// serve.snapshot_failures); failpoint "wal.snapshot" forces one.
bool write_snapshot(const std::string& path, const ShardSnapshot& snapshot);

/// Reads a snapshot; nullopt when the file is missing, truncated,
/// or fails its CRC — recovery then falls back to pure WAL replay.
std::optional<ShardSnapshot> read_snapshot(const std::string& path);

/// MANIFEST: how many shard-<k> wal/snap pairs `dir` holds.
bool write_manifest(const std::string& dir, std::size_t shards);
std::optional<std::size_t> read_manifest(const std::string& dir);

/// Paths of pair k's artifacts inside the WAL directory.
std::string wal_path(const std::string& dir, std::size_t shard);
std::string snapshot_path(const std::string& dir, std::size_t shard);

/// Removes shard-<k>.{wal,snap} files with k >= `shards` — leftovers of
/// an older layout after recovery re-checkpointed them.
void remove_stale_shard_files(const std::string& dir, std::size_t shards);

}  // namespace misuse::serve
