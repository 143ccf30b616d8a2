#include "serve/server.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <filesystem>

#include "serve/metrics.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace misuse::serve {

namespace {
/// Digits of a registry version string ("v12" -> 12) for the
/// serve.model_version gauge; 0 when the version carries no number.
std::int64_t numeric_version(const std::string& version) {
  std::int64_t value = 0;
  bool any = false;
  for (const char c : version) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      value = value * 10 + (c - '0');
      any = true;
    }
  }
  return any ? value : 0;
}

ShardConfig table_config(const ServeConfig& config) {
  ShardConfig table;
  table.monitor = config.monitor;
  table.idle_ttl_seconds = config.idle_ttl_seconds;
  table.max_sessions = std::max<std::size_t>(1, config.max_sessions);
  table.emit_steps = config.emit_steps;
  table.track_history = !config.wal_dir.empty() || config.drift;
  return table;
}
}  // namespace

ScoringServer::ScoringServer(const core::MisuseDetector& detector, const ServeConfig& config)
    : ScoringServer(ModelHandle::borrowed(detector), config) {}

ScoringServer::ScoringServer(ModelHandle model, const ServeConfig& config)
    : config_(config), table_(model, table_config(config)) {
  (void)serve_metrics();  // register the panel eagerly
  serve_metrics().degraded_clusters.set(
      static_cast<std::int64_t>(model.detector->degraded_cluster_count()));
  serve_metrics().model_version.set(numeric_version(model.version));
  if (config_.drift) init_drift();
  if (wal_enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.wal_dir, ec);
    // The writer opens O_APPEND — a predecessor's logs survive until
    // recover()/checkpoint() decides they are covered by a snapshot.
    wal_ = std::make_unique<WalWriter>(wal_path(config_.wal_dir, 0), config_.wal_sync_every);
    table_.set_wal(wal_.get());
    if (!read_manifest(config_.wal_dir)) write_manifest(config_.wal_dir, 1);
  }
}

void ScoringServer::init_drift() {
  // Ctor-only: the table is not yet shared with other threads. The
  // observer stays installed for the server's life; swaps only replace
  // the DriftMonitor behind drift_mutex_.
  table_.set_history_observer([this](const std::vector<int>& actions) { observe_drift(actions); });
  // The drift reference is recovered from the model itself (Markov
  // fallback column sums == training action distribution); v1 archives
  // carry no fallbacks, so drift silently stays off for them.
  std::vector<double> reference = table_.model().detector->training_action_counts();
  std::lock_guard<std::mutex> lock(drift_mutex_);
  if (reference.empty()) {
    drift_ = nullptr;
    log_warn() << "drift monitoring requested but the model archive has no "
                  "Markov fallbacks (v1?); disabled";
    return;
  }
  drift_ = std::make_unique<core::DriftMonitor>(std::move(reference), config_.drift_config);
}

void ScoringServer::observe_drift(const std::vector<int>& actions) {
  if (actions.empty()) return;
  std::lock_guard<std::mutex> lock(drift_mutex_);
  if (drift_ == nullptr) return;
  // Sessions finished under a pre-swap model may reference actions the
  // current reference distribution does not have; drop those sessions
  // rather than index out of the reference.
  for (const int a : actions) {
    if (a < 0 || static_cast<std::size_t>(a) >= drift_->dimensions()) return;
  }
  const double divergence = drift_->observe(actions);
  serve_metrics().drift_micronats.set(static_cast<std::int64_t>(divergence * 1e6));
}

ModelHandle ScoringServer::current_model() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.model();
}

ScoringServer::Enqueue ScoringServer::enqueue(const Event& event, std::vector<OutputRecord>&) {
  staged_.push_back(event);
  return Enqueue::kAccepted;
}

void ScoringServer::pump(std::vector<OutputRecord>& out) {
  submit_batch(staged_, out);
  staged_.clear();
}

void ScoringServer::sweep_at(double now, std::vector<OutputRecord>& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  // Sweeps mutate durable state (evictions), so they are WAL records
  // too: replay re-runs them at the same seq position.
  if (wal_ != nullptr) {
    wal_->append(encode_sweep_record(now, seq));
    wal_->flush();
  }
  table_.sweep(now, seq, out);
}

void ScoringServer::shutdown(std::vector<OutputRecord>& out) {
  pump(out);
  std::lock_guard<std::mutex> lock(mutex_);
  table_.finish_all(out);
  // Every session just reported: persist the (empty) table so a restart
  // after a *graceful* exit recovers nothing.
  if (wal_enabled()) write_checkpoint();
}

std::size_t ScoringServer::recover(std::vector<OutputRecord>& out) {
  if (!wal_enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  // Older nodes wrote one log and snapshot per shard; MANIFEST says how
  // many. All of them feed the one table.
  const std::size_t files = read_manifest(config_.wal_dir).value_or(1);

  // Recovery replays through the normal scoring path; detach the WAL so
  // the replay is not re-logged (the closing checkpoint re-covers
  // everything and truncates the old logs).
  table_.set_wal(nullptr);

  // 1. Snapshots: rebuild each snapshotted session by silent re-feed.
  std::vector<std::uint64_t> watermarks(files, 0);
  double clock = 0.0;
  for (std::size_t k = 0; k < files; ++k) {
    const auto snapshot = read_snapshot(snapshot_path(config_.wal_dir, k));
    if (!snapshot) continue;
    watermarks[k] = snapshot->watermark;
    clock = std::max(clock, snapshot->clock);
    for (const auto& session : snapshot->sessions) table_.restore_session(session);
  }

  // 2. WALs: merge every record past its file's watermark globally by
  //    sequence number, then replay in input order.
  std::vector<WalRecord> records;
  for (std::size_t k = 0; k < files; ++k) {
    for (auto& record : read_wal(wal_path(config_.wal_dir, k))) {
      if (record.seq > watermarks[k]) records.push_back(std::move(record));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });

  std::uint64_t max_seq = 0;
  for (const auto& w : watermarks) max_seq = std::max(max_seq, w);
  std::size_t replayed = 0;
  const core::MisuseDetector* detector = table_.model().detector.get();
  for (const WalRecord& record : records) {
    max_seq = std::max(max_seq, record.seq);
    if (record.type == WalRecord::kEvent) {
      const int action = resolve_action_id(detector->vocab(), record.event.action);
      if (action < 0) continue;  // vocabulary changed under the WAL
      table_.process(record.event, action, detector, record.seq, out);
      ++replayed;
      serve_metrics().recovered_events.inc();
    } else if (record.type == WalRecord::kSweep) {
      // A sharded layout logged one sweep per shard; re-running each over
      // the whole table is idempotent (later passes find nothing expired).
      table_.sweep(record.sweep_now, record.seq, out);
    }
  }

  std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  while (seq < max_seq + 1 &&
         !seq_.compare_exchange_weak(seq, max_seq + 1, std::memory_order_relaxed)) {
  }
  table_.advance_clock_to(clock);
  if (config_.resume_replay) table_.arm_replay_skip();

  // 3. Re-base durability on the recovered state as one shard-0 log and
  //    snapshot, then re-attach the log.
  write_checkpoint();
  table_.set_wal(wal_.get());
  if (replayed > 0 || table_.active_sessions() > 0) {
    log_info() << "recovered " << table_.active_sessions() << " sessions (" << replayed
               << " WAL events replayed)";
  }
  return replayed;
}

void ScoringServer::write_checkpoint() {
  ShardSnapshot snapshot;
  snapshot.watermark = table_.last_applied_seq();
  snapshot.clock = table_.clock();
  snapshot.sessions = table_.snapshot_sessions();
  // Only a landed snapshot may retire the WAL; on failure the log keeps
  // growing and recovery replays it instead.
  if (write_snapshot(snapshot_path(config_.wal_dir, 0), snapshot)) wal_->reset();
  write_manifest(config_.wal_dir, 1);
  remove_stale_shard_files(config_.wal_dir, 1);
  events_since_checkpoint_.store(0, std::memory_order_relaxed);
}

void ScoringServer::checkpoint(std::vector<OutputRecord>& out) {
  if (!wal_enabled()) return;
  pump(out);
  std::lock_guard<std::mutex> lock(mutex_);
  write_checkpoint();
}

bool ScoringServer::maybe_checkpoint(std::vector<OutputRecord>& out) {
  if (!wal_enabled() || config_.snapshot_every == 0) return false;
  if (events_since_checkpoint_.load(std::memory_order_relaxed) < config_.snapshot_every) {
    return false;
  }
  checkpoint(out);
  return true;
}

std::size_t ScoringServer::submit_batch(std::span<const Event> events,
                                        std::vector<OutputRecord>& out) {
  if (events.empty()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const core::MisuseDetector* detector = table_.model().detector.get();
  // One seq per event in arrival order, rejected ones included.
  const std::uint64_t first = seq_.fetch_add(events.size(), std::memory_order_relaxed);
  std::vector<SessionShard::BatchEvent> batch;
  batch.reserve(events.size());
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const int action = resolve_action_id(detector->vocab(), events[i].action);
    if (action >= 0) ++accepted;
    batch.push_back({&events[i], action, detector, first + i});
  }
  table_.process_batch(batch, out);
  // Group commit before any of these verdicts leaves the process.
  if (wal_ != nullptr) wal_->flush();
  events_since_checkpoint_.fetch_add(accepted, std::memory_order_relaxed);
  return accepted;
}

std::size_t ScoringServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.active_sessions();
}

double ScoringServer::event_clock() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.clock();
}

bool ScoringServer::wal_ok() const { return wal_ == nullptr || wal_->ok(); }

void ScoringServer::set_trace_sampler(std::shared_ptr<SessionTraceSampler> sampler) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.set_trace_sampler(std::move(sampler));
}

void ScoringServer::set_step_observer(const StepObserver& observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.set_step_observer(observer);
}

void ScoringServer::set_report_observer(const ReportObserver& observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.set_report_observer(observer);
}

ScoringServer::SwapStats ScoringServer::swap_model(ModelHandle next,
                                                   std::vector<OutputRecord>& out) {
  assert(next.detector != nullptr);
  SwapStats stats;
  Timer drain_timer;
  // Score the staged events to the barrier under the old model; pumping
  // first keeps the locked pause window free of scoring work.
  pump(out);
  stats.drain_seconds = drain_timer.seconds();

  bool compatible = false;
  Timer pause_timer;
  {
    // The barrier: no event is scored while the model pointer moves. An
    // in-flight submit_batch lands either before the barrier (scored
    // under the old model, which its session pins) or after (resolved /
    // reopened under the new one).
    std::lock_guard<std::mutex> lock(mutex_);
    compatible =
        next.detector->vocab().fingerprint() == table_.model().detector->vocab().fingerprint();
    if (!compatible) {
      // The vocabularies differ: open sessions cannot migrate to a model
      // that interprets action ids differently, so each one reports at
      // the barrier (emitted, never dropped) and traffic reopens fresh.
      const std::size_t before = out.size();
      table_.finish_all(out, ReportReason::kModelSwap);
      stats.rolled_sessions = out.size() - before;
    }
    table_.set_model(next);
  }
  stats.pause_seconds = pause_timer.seconds();

  ServeMetrics& sm = serve_metrics();
  sm.swaps.inc();
  sm.swap_pause_seconds.record(stats.pause_seconds);
  sm.swap_sessions_rolled.inc(stats.rolled_sessions);
  sm.model_version.set(numeric_version(next.version));
  sm.degraded_clusters.set(static_cast<std::int64_t>(next.detector->degraded_cluster_count()));
  if (config_.drift) {
    // Re-base the drift reference on the new model; the comparison
    // window restarts (old-window sessions were scored against the old
    // reference, mixing them across references would be meaningless).
    std::vector<double> reference = next.detector->training_action_counts();
    std::lock_guard<std::mutex> lock(drift_mutex_);
    drift_ = reference.empty() ? nullptr
                               : std::make_unique<core::DriftMonitor>(std::move(reference),
                                                                      config_.drift_config);
  }
  log_info() << "model swapped to " << (next.version.empty() ? "(unversioned)" : next.version)
             << (compatible ? "" : " [vocabulary changed]") << ": pause "
             << stats.pause_seconds * 1e3 << "ms, " << stats.rolled_sessions
             << " sessions finished at the barrier";
  return stats;
}

void ScoringServer::set_shadow(const ShadowPlan& plan) {
  assert(plan.detector != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  table_.set_shadow(std::make_shared<ShadowScorer>(plan));
}

void ScoringServer::clear_shadow() {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.set_shadow(nullptr);
}

}  // namespace misuse::serve
