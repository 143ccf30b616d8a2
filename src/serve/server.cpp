#include "serve/server.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <filesystem>

#include "serve/metrics.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
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

/// Restores arrival order over out[base, end): records sort by input
/// sequence number. The merge is stable because seqs are not unique: a
/// capacity-eviction report carries the seq of the event whose session
/// open evicted it, and its shard emits it before that event's step. An
/// unstable sort would order the pair by batch size and shard layout.
void merge_by_seq(std::vector<OutputRecord>& out, std::size_t base) {
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
                   [](const OutputRecord& a, const OutputRecord& b) { return a.seq < b.seq; });
}
}  // namespace

ScoringServer::ScoringServer(const core::MisuseDetector& detector, const ServeConfig& config)
    : ScoringServer(ModelHandle::borrowed(detector), config) {}

ScoringServer::ScoringServer(ModelHandle model, const ServeConfig& config)
    : model_(std::move(model)), config_(config) {
  const std::size_t n = std::max<std::size_t>(1, config_.shards);
  config_.shards = n;
  ShardConfig shard_config;
  shard_config.monitor = config_.monitor;
  shard_config.idle_ttl_seconds = config_.idle_ttl_seconds;
  // Distribute the global session cap; every shard holds at least one.
  shard_config.max_sessions = std::max<std::size_t>(1, (config_.max_sessions + n - 1) / n);
  shard_config.emit_steps = config_.emit_steps;
  shard_config.track_history = !config_.wal_dir.empty() || config_.drift;
  shard_max_sessions_ = shard_config.max_sessions;
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->table = std::make_unique<SessionShard>(model_, shard_config);
    shards_.push_back(std::move(shard));
  }
  (void)serve_metrics();  // register the panel eagerly
  serve_metrics().degraded_clusters.set(
      static_cast<std::int64_t>(model_.detector->degraded_cluster_count()));
  serve_metrics().model_version.set(numeric_version(model_.version));
  if (config_.drift) init_drift();
  if (wal_enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.wal_dir, ec);
    // Writers open O_APPEND — a predecessor's logs survive until
    // recover()/checkpoint() decides they are covered by a snapshot.
    for (std::size_t s = 0; s < n; ++s) {
      wals_.push_back(std::make_unique<WalWriter>(wal_path(config_.wal_dir, s),
                                                  config_.wal_sync_every));
      shards_[s]->table->set_wal(wals_[s].get());
    }
    if (!read_manifest(config_.wal_dir)) write_manifest(config_.wal_dir, n);
  }
}

void ScoringServer::init_drift() {
  // Ctor-only: shards are not yet shared with other threads. The
  // observers stay installed for the server's life; swaps only replace
  // the DriftMonitor behind drift_mutex_.
  for (auto& shard : shards_) {
    shard->table->set_history_observer(
        [this](const std::vector<int>& actions) { observe_drift(actions); });
  }
  // The drift reference is recovered from the model itself (Markov
  // fallback column sums == training action distribution); v1 archives
  // carry no fallbacks, so drift silently stays off for them.
  std::vector<double> reference = model_.detector->training_action_counts();
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

void ScoringServer::advance_clock(double t) {
  double seen = clock_.load(std::memory_order_relaxed);
  while (t > seen &&
         !clock_.compare_exchange_weak(seen, t, std::memory_order_relaxed)) {
  }
}

ModelHandle ScoringServer::current_model() const {
  std::shared_lock<std::shared_mutex> lock(model_mutex_);
  return model_;
}

ScoringServer::Enqueue ScoringServer::enqueue(const Event& event, std::vector<OutputRecord>&) {
  staged_.push_back(event);
  return Enqueue::kAccepted;
}

void ScoringServer::pump(std::vector<OutputRecord>& out) {
  submit_batch(staged_, out);
  staged_.clear();
}

void ScoringServer::append_reports(std::vector<OutputRecord>&& reports,
                                   std::vector<OutputRecord>& out) {
  // Shard partitioning must not leak into the output stream: the same
  // sessions land on different shards at different --shards values, so
  // reports collected across shards are re-sorted into a global record
  // order (and re-tagged with emission-order seqs) before they are
  // emitted. A replayed trace then produces byte-identical output at any
  // shard count, matching the per-step determinism contract.
  std::sort(reports.begin(), reports.end(),
            [](const OutputRecord& a, const OutputRecord& b) { return a.line < b.line; });
  out.reserve(out.size() + reports.size());
  for (auto& r : reports) {
    r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    out.push_back(std::move(r));
  }
}

void ScoringServer::sweep_at(double now, std::vector<OutputRecord>& out) {
  // Serial in shard order: eviction reports are rare and cheap to render.
  std::vector<OutputRecord> reports;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    // Sweeps mutate durable state (evictions), so they are WAL records
    // too: replay re-runs them at the same global-seq position.
    if (s < wals_.size() && wals_[s] != nullptr) {
      wals_[s]->append(encode_sweep_record(now, seq));
      wals_[s]->flush();
    }
    shard.table->sweep(now, seq, reports);
  }
  append_reports(std::move(reports), out);
}

void ScoringServer::shutdown(std::vector<OutputRecord>& out) {
  pump(out);
  std::vector<OutputRecord> reports;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->finish_all(seq_.fetch_add(1, std::memory_order_relaxed), reports);
  }
  append_reports(std::move(reports), out);
  // Every session just reported: persist the (empty) tables so a restart
  // after a *graceful* exit recovers nothing.
  if (wal_enabled()) write_checkpoint();
}

std::size_t ScoringServer::recover(std::vector<OutputRecord>& out) {
  if (!wal_enabled()) return 0;
  const std::size_t old_shards = read_manifest(config_.wal_dir).value_or(shards_.size());

  // Recovery replays through the normal scoring path; detach the WALs so
  // the replay is not re-logged (the closing checkpoint re-covers
  // everything and truncates the old logs).
  for (auto& shard : shards_) shard->table->set_wal(nullptr);

  // 1. Snapshots: rebuild each snapshotted session by silent re-feed,
  //    routed through the *current* sharding.
  std::vector<std::uint64_t> watermarks(old_shards, 0);
  double clock = 0.0;
  for (std::size_t k = 0; k < old_shards; ++k) {
    const auto snapshot = read_snapshot(snapshot_path(config_.wal_dir, k));
    if (!snapshot) continue;
    watermarks[k] = snapshot->watermark;
    clock = std::max(clock, snapshot->clock);
    for (const auto& session : snapshot->sessions) {
      Event probe;
      probe.user_id = session.user_id;
      probe.session_id = session.session_id;
      Shard& shard = *shards_[shard_of(probe)];
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.table->restore_session(session);
    }
  }

  // 2. WALs: merge every record past its file's watermark globally by
  //    sequence number, then replay in input order.
  std::vector<WalRecord> records;
  for (std::size_t k = 0; k < old_shards; ++k) {
    for (auto& record : read_wal(wal_path(config_.wal_dir, k))) {
      if (record.seq > watermarks[k]) records.push_back(std::move(record));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });

  std::uint64_t max_seq = 0;
  for (const auto& w : watermarks) max_seq = std::max(max_seq, w);
  std::size_t replayed = 0;
  std::vector<OutputRecord> replayed_out;
  const ModelHandle replay_model = current_model();
  for (const WalRecord& record : records) {
    max_seq = std::max(max_seq, record.seq);
    if (record.type == WalRecord::kEvent) {
      const int action = resolve_action_id(replay_model.detector->vocab(), record.event.action);
      if (action < 0) continue;  // vocabulary changed under the WAL
      if (record.event.has_timestamp) clock = std::max(clock, record.event.timestamp);
      Shard& shard = *shards_[shard_of(record.event)];
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.table->process(record.event, action, replay_model.detector.get(), record.seq,
                           replayed_out);
      ++replayed;
      serve_metrics().recovered_events.inc();
    } else if (record.type == WalRecord::kSweep) {
      // The old layout logged one sweep per shard; re-running each as a
      // global sweep is idempotent (later passes find nothing expired).
      for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->table->sweep(record.sweep_now, record.seq, replayed_out);
      }
    }
  }
  // Replayed records keep their original seqs: a consumer that saw the
  // pre-crash stream dedups on seq and the tail continues seamlessly.
  const std::size_t base = out.size();
  out.reserve(base + replayed_out.size());
  for (auto& r : replayed_out) out.push_back(std::move(r));
  merge_by_seq(out, base);

  std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  while (seq < max_seq + 1 &&
         !seq_.compare_exchange_weak(seq, max_seq + 1, std::memory_order_relaxed)) {
  }
  advance_clock(clock);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->advance_clock_to(clock);
  }

  if (config_.resume_replay) {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->table->arm_replay_skip();
    }
  }

  // 3. Re-base durability on the recovered state under the current
  //    layout, then re-attach the logs.
  write_checkpoint();
  for (std::size_t s = 0; s < shards_.size(); ++s) shards_[s]->table->set_wal(wals_[s].get());
  if (replayed > 0 || active_sessions() > 0) {
    log_info() << "recovered " << active_sessions() << " sessions (" << replayed
               << " WAL events replayed)";
  }
  return replayed;
}

void ScoringServer::write_checkpoint() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    ShardSnapshot snapshot;
    snapshot.watermark = shard.table->last_applied_seq();
    snapshot.clock = shard.table->clock();
    snapshot.sessions = shard.table->snapshot_sessions();
    if (write_snapshot(snapshot_path(config_.wal_dir, s), snapshot)) {
      // Only a landed snapshot may retire its WAL; on failure the log
      // keeps growing and recovery replays it instead.
      if (s < wals_.size() && wals_[s] != nullptr) wals_[s]->reset();
    }
  }
  write_manifest(config_.wal_dir, shards_.size());
  remove_stale_shard_files(config_.wal_dir, shards_.size());
  events_since_checkpoint_.store(0, std::memory_order_relaxed);
}

void ScoringServer::checkpoint(std::vector<OutputRecord>& out) {
  if (!wal_enabled()) return;
  pump(out);
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
  const ModelHandle resolver = current_model();
  const core::MisuseDetector* detector = resolver.detector.get();
  const std::size_t base = out.size();
  // One seq per event in arrival order, rejected ones included.
  const std::uint64_t first = seq_.fetch_add(events.size(), std::memory_order_relaxed);
  std::vector<std::vector<SessionShard::BatchEvent>> by_shard(shards_.size());
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    const int action = resolve_action_id(detector->vocab(), event.action);
    if (action < 0) {
      serve_metrics().parse_errors.inc();
      out.push_back({first + i, render_error_record("unknown action", event.action)});
      continue;
    }
    if (event.has_timestamp) advance_clock(event.timestamp);
    by_shard[shard_of(event)].push_back({&event, action, detector, first + i});
    ++accepted;
  }
  // One lane per shard with events. At one lane (the node's default) the
  // shards run in index order on this thread; with more, a shard's
  // records land in its own vector until the merge below.
  std::vector<std::vector<OutputRecord>> shard_out(shards_.size());
  global_pool().parallel_for(0, shards_.size(), [&](std::size_t s) {
    if (by_shard[s].empty()) return;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.table->process_batch(by_shard[s], shard_out[s]);
    // Group commit before any of these verdicts leaves the process.
    if (s < wals_.size() && wals_[s] != nullptr) wals_[s]->flush();
  });
  events_since_checkpoint_.fetch_add(accepted, std::memory_order_relaxed);
  for (auto& records : shard_out) {
    for (auto& r : records) out.push_back(std::move(r));
  }
  merge_by_seq(out, base);
  return accepted;
}

std::size_t ScoringServer::active_sessions() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->table->active_sessions();
  }
  return total;
}

double ScoringServer::event_clock() const { return clock_.load(std::memory_order_relaxed); }

std::vector<ScoringServer::ShardStatus> ScoringServer::shard_status() const {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardStatus status;
    status.max_sessions = shard_max_sessions_;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      status.sessions = shard.table->active_sessions();
      status.last_applied_seq = shard.table->last_applied_seq();
    }
    out.push_back(status);
  }
  return out;
}

bool ScoringServer::wal_ok() const {
  for (const auto& wal : wals_) {
    if (wal != nullptr && !wal->ok()) return false;
  }
  return true;
}

void ScoringServer::set_trace_sampler(std::shared_ptr<SessionTraceSampler> sampler) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->set_trace_sampler(sampler);
  }
}

void ScoringServer::set_step_observer(const StepObserver& observer) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->set_step_observer(observer);
  }
}

void ScoringServer::set_report_observer(const ReportObserver& observer) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->set_report_observer(observer);
  }
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

  const bool compatible =
      next.detector->vocab().fingerprint() == current_model().detector->vocab().fingerprint();
  std::vector<OutputRecord> reports;
  Timer pause_timer;
  {
    // The barrier: every shard locked (always in index order, so two
    // concurrent swaps cannot deadlock) — no event is scored while the
    // model pointer moves. An in-flight submit_batch lands either before
    // the barrier (scored under the old model, which its session pins)
    // or after (re-resolved / reopened under the new one).
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto& shard : shards_) locks.emplace_back(shard->mutex);
    if (!compatible) {
      // The vocabularies differ: open sessions cannot migrate to a model
      // that interprets action ids differently, so each one reports at
      // the barrier (emitted, never dropped) and traffic reopens fresh.
      for (auto& shard : shards_) {
        const std::size_t before = reports.size();
        shard->table->finish_all(seq_.fetch_add(1, std::memory_order_relaxed), reports,
                                 ReportReason::kModelSwap);
        stats.rolled_sessions += reports.size() - before;
      }
    }
    for (auto& shard : shards_) shard->table->set_model(next);
    {
      std::unique_lock<std::shared_mutex> model_lock(model_mutex_);
      model_ = next;
    }
  }
  stats.pause_seconds = pause_timer.seconds();
  append_reports(std::move(reports), out);

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
  // One scorer per shard (each driven under its shard's lock), so shadow
  // scoring needs no cross-shard coordination of its own.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->set_shadow(std::make_shared<ShadowScorer>(plan));
  }
}

void ScoringServer::clear_shadow() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->table->set_shadow(nullptr);
  }
}

}  // namespace misuse::serve
