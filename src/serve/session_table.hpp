// The streaming server's session table. It owns the OnlineMonitor state
// of every open session and is only ever driven by one thread at a time
// (the server holds its mutex around every call), so the table itself is
// deterministic: events are applied in arrival order, and the
// per-session score stream is bit-identical to replaying the same
// actions through a standalone OnlineMonitor (the offline path in
// core/monitor.hpp). A batch's model steps and record rendering fan out
// over the global pool's lanes inside process_batch; the class keeps its
// SessionShard name from the sharded layout it replaced.
//
// Record order: the table appends every record to `out` in its final
// place. Steps leave in arrival order; a record that is not a step (an
// error, an eviction report) first settles the staged steps, then follows
// them. Callers emit the records as they come.
//
// Bounds: `max_sessions` caps the map — opening a session beyond the cap
// evicts the least-recently-seen entry first (emitting its report). A
// session whose next event comes more than `idle_ttl_seconds` of *event
// time* (the timestamps in the stream) after its last one ends before
// that event, which opens a new one; the TTL sweep retires sessions that
// never return. Both follow event time, so replays evict exactly like
// live traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/monitor.hpp"
#include "serve/event.hpp"
#include "serve/trace_sampler.hpp"
#include "serve/wal.hpp"

namespace misuse::serve {

/// One rendered NDJSON output line, appended in its final place.
struct OutputRecord {
  std::string line;
};

/// A versioned, shared reference to a loaded detector. Every session
/// opened under a handle pins it, so a hot-swap never frees a model that
/// live sessions still score with — the old model is released when its
/// last session finishes.
struct ModelHandle {
  std::shared_ptr<const core::MisuseDetector> detector;
  std::string version;  // registry version ("v3"); empty = unversioned

  /// Wraps a caller-owned detector without taking ownership — the
  /// embedding/test path where no registry is involved. The detector
  /// must outlive every session opened under the handle.
  static ModelHandle borrowed(const core::MisuseDetector& detector) {
    return {std::shared_ptr<const core::MisuseDetector>(std::shared_ptr<void>(), &detector), {}};
  }
};

struct ShardConfig {
  core::MonitorConfig monitor;
  double idle_ttl_seconds = 900.0;
  std::size_t max_sessions = 4096;  // one LRU over every open session
  bool emit_steps = true;           // emit "step" records (reports always emit)
  /// Record each session's raw applied action history (needed by WAL
  /// snapshots, resume-replay dedup, and the drift monitor).
  bool track_history = false;
};

/// Structured observation hooks, for tests and in-process embedders that
/// want StepResults without reparsing JSON. Called in arrival order on
/// the thread driving the table.
using StepObserver =
    std::function<void(const Event&, const core::OnlineMonitor::StepResult&)>;
using ReportObserver = std::function<void(std::string_view user_id, std::string_view session_id,
                                          ReportReason, const core::SessionMonitorReport&)>;
/// Fed every finished session's applied action history (requires
/// track_history); the server's drift monitor hangs off this.
using HistoryObserver = std::function<void(const std::vector<int>& actions)>;

class ShadowScorer;

class SessionShard {
 public:
  SessionShard(ModelHandle model, const ShardConfig& config)
      : model_(std::move(model)), config_(config) {}

  /// Scores one event and appends the step record. Opens the session on
  /// first sight (pinning the table's current model into it), evicting
  /// the least-recently-seen session first when the table is full, and
  /// reopens one that idled past the TTL. `action` was resolved under
  /// `resolved_under`'s vocabulary (-1: unknown there, which appends an
  /// error record); when the session is pinned to a *different* model
  /// (an event raced a hot-swap), the raw action string is re-resolved
  /// under the session's own vocabulary, so a stale id is never fed to
  /// the wrong model. `seq` numbers the event's WAL record.
  void process(const Event& event, int action, const core::MisuseDetector* resolved_under,
               std::uint64_t seq, std::vector<OutputRecord>& out);

  /// One event of a batch, its action resolved by the server (-1 when
  /// unknown). The pointed-to Event must stay alive for the process_batch
  /// call.
  struct BatchEvent {
    const Event* event = nullptr;
    int action = -1;
    const core::MisuseDetector* resolved_under = nullptr;
    std::uint64_t seq = 0;
  };

  /// Applies a batch of events in arrival order, bit-identical to calling
  /// process() per event — but the model forwards of distinct sessions
  /// are fused into per-cluster batched steps (the streaming forward's
  /// step_batch), and the step records render on the pool's lanes.
  /// Consecutive events of the *same* session still advance strictly in
  /// sequence: a session hit flushes the pending batch first.
  void process_batch(std::span<const BatchEvent> events, std::vector<OutputRecord>& out);

  /// Retires sessions idle past the TTL at event time `now` (the sweep's
  /// WAL record is `seq`). Sessions finish in key order, so observers see
  /// an order that does not depend on the hash map; their reports are
  /// appended in rendered-line order.
  void sweep(double now, std::uint64_t seq, std::vector<OutputRecord>& out);

  /// Drain: finishes every open session as sweep() does and empties the
  /// table. Graceful shutdown by default; a vocab-changing hot-swap
  /// drains with ReportReason::kModelSwap.
  void finish_all(std::vector<OutputRecord>& out, ReportReason reason = ReportReason::kShutdown);

  std::size_t active_sessions() const { return sessions_.size(); }

  // -- Model lifecycle (DESIGN.md "Model lifecycle") -----------------------

  /// Points *new* sessions at `model`. Open sessions keep the model they
  /// pinned at open — a session's whole score stream comes from exactly
  /// one model version (the stamping invariant).
  void set_model(ModelHandle model) { model_ = std::move(model); }
  const ModelHandle& model() const { return model_; }

  /// Attaches (or detaches, with nullptr) the table's shadow scorer; it
  /// is driven after each active-model step and on session finish, and
  /// only ever writes metrics — never output records.
  void set_shadow(std::shared_ptr<ShadowScorer> shadow) { shadow_ = std::move(shadow); }

  void set_step_observer(StepObserver observer) { step_observer_ = std::move(observer); }
  void set_report_observer(ReportObserver observer) { report_observer_ = std::move(observer); }
  void set_history_observer(HistoryObserver observer) {
    history_observer_ = std::move(observer);
  }

  /// Attaches (or detaches, with nullptr) the head sampler for live
  /// trace export: steps and reports of sampled sessions are recorded
  /// into the global trace-event ring (util/trace.hpp). Tracing never
  /// touches output records, so scored output stays byte-identical.
  void set_trace_sampler(std::shared_ptr<SessionTraceSampler> sampler) {
    tracer_ = std::move(sampler);
  }

  // -- Crash safety (serve/wal.hpp) ----------------------------------------

  /// Attaches (or detaches, with nullptr) the table's write-ahead log;
  /// process() then logs every event before applying it (buffered — the
  /// owning server flushes the log before emitting the batch's verdicts).
  void set_wal(WalWriter* wal) { wal_ = wal; }

  /// Largest input sequence number applied to the table so far — the
  /// watermark a snapshot taken now covers.
  std::uint64_t last_applied_seq() const { return last_applied_seq_; }

  double clock() const { return clock_; }
  void advance_clock_to(double t) { clock_ = std::max(clock_, t); }

  /// Key-ordered snapshot of every open session (requires track_history).
  std::vector<SessionSnapshot> snapshot_sessions() const;

  /// Reinstates a snapshotted session by silently re-feeding its action
  /// history through a fresh monitor — no output records, no observers,
  /// no WAL appends; OnlineMonitor determinism makes the rebuilt state
  /// identical to the pre-crash one.
  void restore_session(const SessionSnapshot& snapshot);

  /// Arms resume-replay dedup: each open session will silently consume
  /// incoming events that match its already-applied action prefix (for
  /// producers that resend the stream from origin after a crash). A
  /// mismatching action disarms the session and scoring resumes normally.
  void arm_replay_skip();

 private:
  struct Entry {
    std::string user_id;
    std::string session_id;
    /// The model this session opened under; pinned for its whole life so
    /// every step (and the report stamp) comes from one version.
    ModelHandle model;
    std::unique_ptr<core::OnlineMonitor> monitor;
    core::SessionAccumulator acc;
    double last_seen = 0.0;
    /// Applied actions, in order (only when config_.track_history).
    std::vector<int> actions;
    /// Resume-replay dedup: actions[0..replay_pos) already consumed.
    std::vector<int> replay_skip;
    std::size_t replay_pos = 0;
    /// True while a step for this session sits in process_batch's staging
    /// area (its monitor state is about to advance).
    bool staged = false;
  };

  void finish_entry(const Entry& entry, ReportReason reason, std::vector<OutputRecord>& out);
  void evict_lru(std::vector<OutputRecord>& out);
  /// Finishes and erases the sessions of `keys` in key order, then puts
  /// their reports in rendered-line order.
  void finish_sessions(std::vector<std::string> keys, ReportReason reason,
                       std::vector<OutputRecord>& out);

  /// Current model for *new* sessions (open ones keep their pin).
  ModelHandle model_;
  ShardConfig config_;
  std::unordered_map<std::string, Entry> sessions_;
  /// Largest event timestamp seen; stamps events that carry none, so TTL
  /// still advances on timestamp-less streams once any event has one.
  double clock_ = 0.0;
  StepObserver step_observer_;
  ReportObserver report_observer_;
  HistoryObserver history_observer_;
  std::shared_ptr<ShadowScorer> shadow_;
  std::shared_ptr<SessionTraceSampler> tracer_;
  WalWriter* wal_ = nullptr;
  std::uint64_t last_applied_seq_ = 0;
};

}  // namespace misuse::serve
