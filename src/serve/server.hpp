// ScoringServer: the streaming core of misusedet_serve. Consumes an
// interleaved event stream from many users into one session table (a
// SessionShard keyed by user_id+session_id) behind one mutex, and scores
// each batch of events with one process_batch.
//
// Architecture (see DESIGN.md "Serving"):
//   * submit_batch(): the one scoring path. Resolves each event's action,
//     numbers the events in arrival order for the WAL, and scores the
//     batch with one process_batch and one WAL flush. --threads lanes fan
//     out inside the batch (OnlineMonitor::observe_batch and the record
//     rendering), never across sessions' order: a session's events keep
//     their order and OnlineMonitor is deterministic, so every per-session
//     score stream is bit-identical to the offline monitor at any thread
//     count. The session table appends every record in its final place
//     (see serve/session_table.hpp), so the emitted NDJSON order is
//     arrival order at any batch size. submit_sync() is its one-event
//     case.
//   * enqueue()/pump(): stage events in one server-owned vector and hand
//     them to submit_batch.
//   * sweep(): retires idle sessions by *event time* TTL.
//   * shutdown(): graceful drain — scores what is staged, then emits an
//     end-of-session report for every open session.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/detector.hpp"
#include "core/drift.hpp"
#include "serve/session_table.hpp"
#include "serve/shadow.hpp"

namespace misuse::serve {

struct ServeConfig {
  double idle_ttl_seconds = 900.0;
  /// Session-table capacity: one LRU over every open session.
  std::size_t max_sessions = 4096;
  bool emit_steps = true;
  core::MonitorConfig monitor;

  // -- Crash safety (serve/wal.hpp) ----------------------------------------
  /// Directory for the WAL + snapshot; empty disables durability.
  std::string wal_dir;
  /// fsync the WAL every N appends (1 = every append). Records
  /// are handed to the OS per batch regardless (group commit), so a
  /// process crash loses nothing; fsync only narrows the *machine*-crash
  /// window, and is priced accordingly.
  std::size_t wal_sync_every = 1024;
  /// Checkpoint (snapshot + WAL truncate) every N applied events;
  /// 0 = only at shutdown.
  std::size_t snapshot_every = 4096;
  /// Arm resume-replay dedup after recovery: producers that resend the
  /// stream from origin have already-applied events silently skipped.
  bool resume_replay = false;

  // -- Drift monitoring (core/drift.hpp) -----------------------------------
  /// Watch live behavior drift against the training distribution (the
  /// reference is recovered from the model archive's Markov fallbacks).
  /// Finished sessions feed a DriftMonitor and the current JS divergence
  /// lands in the serve.drift_micronats gauge. Implies track_history.
  bool drift = false;
  core::DriftConfig drift_config;
};

class ScoringServer {
 public:
  /// Serves a caller-owned detector (no registry, no version stamps) —
  /// the embedding/test path. The detector must outlive the server.
  ScoringServer(const core::MisuseDetector& detector, const ServeConfig& config);

  /// Serves a registry-managed model: reports are stamped with
  /// `model.version` and the model can be hot-swapped.
  ScoringServer(ModelHandle model, const ServeConfig& config);

  enum class Enqueue {
    kAccepted,
    kQueueFull,  // never returned: nothing bounds the staged events
  };

  /// Stages a copy of `event` for the next pump(); always kAccepted, and
  /// `out` is left alone. An unknown action gets its error record from
  /// pump(), in its arrival place. One producer thread at a time.
  Enqueue enqueue(const Event& event, std::vector<OutputRecord>& out);

  /// submit_batch() of every staged event; the stage is empty afterwards.
  void pump(std::vector<OutputRecord>& out);

  /// TTL sweep at the stream's current event time (or an explicit time).
  void sweep(std::vector<OutputRecord>& out) { sweep_at(event_clock(), out); }
  void sweep_at(double now, std::vector<OutputRecord>& out);

  /// Graceful shutdown: pump the staged events, then emit a report for
  /// every open session. The server stays usable afterwards (tables empty).
  /// With a WAL dir, ends with an empty checkpoint so a later restart
  /// recovers nothing.
  void shutdown(std::vector<OutputRecord>& out);

  // -- Crash recovery (serve/wal.hpp; DESIGN.md "Fault tolerance") ---------

  /// Rebuilds state left by a crashed predecessor: loads every snapshot
  /// the directory's MANIFEST names (older nodes wrote one per shard),
  /// replays WAL records past each snapshot's watermark globally by
  /// sequence number through the live scoring path, re-emitting their
  /// records in the order the crashed node printed them (sweep reports
  /// included), and checkpoints the recovered state as one shard-0 log and
  /// snapshot. Returns the number of WAL events replayed. No-op without a
  /// WAL dir.
  std::size_t recover(std::vector<OutputRecord>& out);

  /// Pumps, snapshots the session table, and truncates the WAL the
  /// snapshot now covers. A crash at any point is safe: the snapshot
  /// replaces atomically, and the WAL is only truncated after it landed.
  void checkpoint(std::vector<OutputRecord>& out);

  /// checkpoint() once at least `snapshot_every` events were applied
  /// since the last one. Returns true when a checkpoint ran.
  bool maybe_checkpoint(std::vector<OutputRecord>& out);

  bool wal_enabled() const { return !config_.wal_dir.empty(); }

  /// Scores `events` in order (one socket read over TCP, one --batch block
  /// in pipe mode). Under the table lock, every action resolves under the
  /// current model, sequence numbers follow arrival order, and one
  /// process_batch and one WAL flush score the batch, so sessions of one
  /// cluster share one batched model step.
  /// The records are appended to `out` in arrival order; an unknown action
  /// gets an error record in its place. Returns the events accepted.
  std::size_t submit_batch(std::span<const Event> events, std::vector<OutputRecord>& out);

  /// submit_batch() of one event: false (with an error record) when the
  /// action is invalid.
  bool submit_sync(const Event& event, std::vector<OutputRecord>& out) {
    return submit_batch({&event, 1}, out) == 1;
  }

  std::size_t active_sessions() const;
  /// Largest event timestamp the session table has applied so far.
  double event_clock() const;

  // -- Runtime introspection (serve/admin.hpp; DESIGN.md "Operations plane")

  /// Next sequence number to be assigned (1 when nothing was admitted).
  std::uint64_t next_seq() const { return seq_.load(std::memory_order_relaxed); }
  /// Events applied since the last checkpoint (WAL replay lag bound).
  std::uint64_t events_since_checkpoint() const {
    return events_since_checkpoint_.load(std::memory_order_relaxed);
  }
  /// False when the WAL writer has failed (durability is degraded);
  /// true when the WAL is disabled or healthy.
  bool wal_ok() const;

  /// Attaches the head sampler for live trace export (--trace-sample):
  /// step and report events of sampled sessions land in the global
  /// trace-event ring. nullptr detaches. Set before serving.
  void set_trace_sampler(std::shared_ptr<SessionTraceSampler> sampler);

  /// Observation hooks, forwarded to the session table. Set before
  /// serving; callbacks fire in arrival order on the scoring thread.
  void set_step_observer(const StepObserver& observer);
  void set_report_observer(const ReportObserver& observer);

  const ServeConfig& config() const { return config_; }

  // -- Model lifecycle (DESIGN.md "Model lifecycle") -----------------------

  /// Zero-downtime hot-swap: pumps the staged events to a barrier under
  /// the old model, then atomically repoints the session table (and
  /// submit_batch's action resolution) at `next`. Open sessions pin the
  /// model they started under, so when the vocabularies are compatible
  /// (equal fingerprints) they simply continue — each session's whole
  /// score stream still comes from exactly one version. When the
  /// vocabularies differ, every open session is finished at the barrier
  /// with a "model_swap" report (emitted, never dropped) and traffic
  /// reopens under `next`. No event is lost either way.
  struct SwapStats {
    double drain_seconds = 0.0;   // pump of the staged events before the barrier
    double pause_seconds = 0.0;   // table-locked window
    std::size_t rolled_sessions = 0;  // sessions finished at the barrier
  };
  SwapStats swap_model(ModelHandle next, std::vector<OutputRecord>& out);

  /// The handle serving *new* sessions right now.
  ModelHandle current_model() const;

  /// Attaches a shadow/canary scorer mirroring `plan.fraction` of the
  /// sessions onto the candidate model (serve.shadow.* metrics).
  /// Replaces any previous plan; clear_shadow() detaches.
  void set_shadow(const ShadowPlan& plan);
  void clear_shadow();

 private:
  void init_drift();
  void observe_drift(const std::vector<int>& actions);

  /// Snapshots the table + truncates the WAL it covers (no pump; the
  /// caller holds mutex_).
  void write_checkpoint();

  ServeConfig config_;
  /// Guards table_: scoring, sweeps, checkpoints, swaps and the admin
  /// plane's reads each take it for their whole step.
  mutable std::mutex mutex_;
  /// The session table. Its model() serves *new* sessions and resolves
  /// submit_batch's actions.
  SessionShard table_;
  /// enqueue()'s events, scored by the next pump().
  std::vector<Event> staged_;
  std::unique_ptr<WalWriter> wal_;
  /// Input events and sweeps take sequence numbers, the order of their
  /// WAL records. They start at 1: snapshot watermarks mean "replay
  /// strictly after", so 0 must stay the "nothing applied" sentinel.
  std::atomic<std::uint64_t> seq_{1};
  std::atomic<std::uint64_t> events_since_checkpoint_{0};

  /// Drift sink: the table reports finished sessions' action histories
  /// here (under mutex_; swap_model replaces the monitor under this one).
  std::mutex drift_mutex_;
  std::unique_ptr<core::DriftMonitor> drift_;
};

}  // namespace misuse::serve
