#include "serve/session_table.hpp"

#include <algorithm>
#include <sstream>

#include "serve/metrics.hpp"
#include "serve/shadow.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace misuse::serve {

namespace {

// Pre-rendered flat-JSON args for sampled trace events (util/trace.hpp
// TraceEvent::args — the inner object body, without braces).
std::string strip_braces(std::string s) { return s.substr(1, s.size() - 2); }

std::string step_trace_args(const Event& event, const core::OnlineMonitor::StepResult& step) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.member("action", event.action);
  json.member("step", step.step);
  json.member("cluster", step.cluster_voted);
  json.member("alarm", step.alarm);
  if (step.likelihood_voted) json.member("likelihood", *step.likelihood_voted);
  json.end_object();
  return strip_braces(os.str());
}

std::string report_trace_args(ReportReason reason, const core::SessionMonitorReport& report) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.member("reason", report_reason_name(reason));
  json.member("steps", report.steps);
  json.member("alarms", report.alarms);
  json.end_object();
  return strip_braces(os.str());
}

}  // namespace

void SessionShard::process(const Event& event, int action,
                           const core::MisuseDetector* resolved_under, std::uint64_t seq,
                           std::vector<OutputRecord>& out) {
  const BatchEvent one{&event, action, resolved_under, seq};
  process_batch(std::span<const BatchEvent>(&one, 1), out);
}

void SessionShard::process_batch(std::span<const BatchEvent> events,
                                 std::vector<OutputRecord>& out) {
  const bool record = metrics_enabled();
  Timer timer;
  std::size_t scored = 0;

  // Staged steps: bookkeeping (clock, last_seen, WAL, watermark) already
  // applied in arrival order; the monitor advance is deferred so distinct
  // sessions' forwards fuse into one batched step per pinned detector.
  // Entry pointers are stable (node-based map) and no staged entry is
  // ever finished (every record that is not a step flushes first).
  struct Staged {
    const Event* event;
    Entry* entry;
    int action;
  };
  std::vector<Staged> staged;
  staged.reserve(events.size());

  std::vector<const core::MisuseDetector*> batch_models;
  std::vector<core::OnlineMonitor*> batch_monitors;
  std::vector<int> batch_actions;
  std::vector<std::size_t> batch_index;
  std::vector<core::OnlineMonitor::StepResult> results;
  std::vector<std::string> rendered;

  const auto flush = [&] {
    if (staged.empty()) return;
    const bool tracing = tracer_ != nullptr && trace_events().enabled();
    const std::uint64_t flush_start = tracing ? trace_now_nanos() : 0;
    results.clear();
    results.resize(staged.size());
    // One fused observe_batch per distinct pinned detector (almost always
    // exactly one; more only mid-hot-swap), in first-appearance order.
    batch_models.clear();
    for (const Staged& s : staged) {
      const auto* detector = s.entry->model.detector.get();
      if (std::find(batch_models.begin(), batch_models.end(), detector) == batch_models.end()) {
        batch_models.push_back(detector);
      }
    }
    std::vector<core::OnlineMonitor::StepResult> group_results;
    for (const auto* detector : batch_models) {
      batch_monitors.clear();
      batch_actions.clear();
      batch_index.clear();
      for (std::size_t i = 0; i < staged.size(); ++i) {
        if (staged[i].entry->model.detector.get() != detector) continue;
        batch_monitors.push_back(staged[i].entry->monitor.get());
        batch_actions.push_back(staged[i].action);
        batch_index.push_back(i);
      }
      group_results.assign(batch_index.size(), {});
      core::OnlineMonitor::observe_batch(*detector, batch_monitors, batch_actions, group_results);
      for (std::size_t j = 0; j < batch_index.size(); ++j) {
        results[batch_index[j]] = std::move(group_results[j]);
      }
    }
    // Sampled tracing: the fused batch is one timed unit, so each traced
    // step gets an equal slice of the flush window — good enough to see
    // the lifecycle and ordering, which is what the export is for.
    const std::uint64_t flush_share =
        tracing ? (trace_now_nanos() - flush_start) / staged.size() : 0;
    // Rendering is a pure function of each row, so it fans out over the
    // pool's lanes; everything after it replays arrival order, so records,
    // observers, and the shadow scorer see exactly the per-event sequence.
    rendered.resize(config_.emit_steps ? staged.size() : 0);
    global_pool().parallel_for(0, rendered.size(), [&](std::size_t i) {
      rendered[i] = render_step_record(*staged[i].event, results[i]);
    });
    for (std::size_t i = 0; i < staged.size(); ++i) {
      Entry& entry = *staged[i].entry;
      const Event& event = *staged[i].event;
      const core::OnlineMonitor::StepResult& step = results[i];
      if (tracing) {
        const std::string key = session_key(event);
        if (tracer_->sampled(key)) {
          trace_events().record({"monitor.step", key, flush_start + i * flush_share, flush_share,
                                 step_trace_args(event, step)});
        }
      }
      if (config_.track_history) entry.actions.push_back(staged[i].action);
      entry.acc.add(step);
      if (config_.emit_steps) out.push_back({std::move(rendered[i])});
      if (step_observer_) step_observer_(event, step);
      if (shadow_) shadow_->observe(event, step);
      entry.staged = false;
      if (record) {
        ServeMetrics& sm = serve_metrics();
        sm.events.inc();
        sm.steps.inc();
        if (step.alarm) sm.alarms.inc();
      }
    }
    scored += staged.size();
    staged.clear();
  };

  // A rejected event leaves the table untouched; its error record follows
  // the steps staged before it.
  const auto reject = [&](const Event& event) {
    flush();
    serve_metrics().parse_errors.inc();
    out.push_back({render_error_record("unknown action", event.action)});
  };

  for (const BatchEvent& pending : events) {
    const Event& event = *pending.event;
    int action = pending.action;
    if (action < 0) {
      reject(event);
      continue;
    }
    const std::string key = session_key(event);
    auto it = sessions_.find(key);
    // now - last_seen over the TTL: the session idled out before this
    // event, which opens a new one. `now` is stamped as last_seen is, so
    // the decision follows the session's own events, not where a batch
    // boundary or a sweep fell.
    const double now = event.has_timestamp ? event.timestamp : clock_;
    if (it != sessions_.end() && now - it->second.last_seen > config_.idle_ttl_seconds) {
      flush();
      finish_entry(it->second, ReportReason::kIdleEviction, out);
      sessions_.erase(it);
      it = sessions_.end();
    }
    // A session's actions are always interpreted under the model it
    // pinned at open. When the id was resolved under a different model
    // (the event raced a hot-swap), re-resolve the raw action string —
    // for vocab-compatible swaps this yields the same id; for
    // incompatible ones it prevents feeding a foreign id to the pinned
    // model.
    const core::MisuseDetector* pinned =
        it != sessions_.end() ? it->second.model.detector.get() : model_.detector.get();
    if (pinned != pending.resolved_under) {
      action = resolve_action_id(pinned->vocab(), event.action);
      if (action < 0) {
        reject(event);
        continue;
      }
    }
    if (it != sessions_.end() && it->second.replay_pos < it->second.replay_skip.size()) {
      // Resume-replay dedup: the producer is resending the stream from
      // origin after a restart; events matching the session's already-
      // applied action prefix are consumed silently (no WAL append, no
      // scoring, no output) so the rebuilt state is not double-fed.
      // (A session with an armed skip list has no staged step: scoring
      // any event first clears the list.)
      Entry& entry = it->second;
      if (action == entry.replay_skip[entry.replay_pos]) {
        ++entry.replay_pos;
        if (event.has_timestamp) clock_ = std::max(clock_, event.timestamp);
        entry.last_seen = now;
        serve_metrics().replay_skipped.inc();
        continue;
      }
      // The stream diverged from history — stop skipping, score normally.
      entry.replay_skip.clear();
      entry.replay_pos = 0;
    }
    if (it == sessions_.end()) {
      if (sessions_.size() >= config_.max_sessions) {
        // The LRU victim may have a staged step — settle it before the
        // eviction report, exactly as the one-by-one path would.
        flush();
        evict_lru(out);
      }
      Entry entry;
      entry.user_id = event.user_id;
      entry.session_id = event.session_id;
      entry.model = model_;
      entry.monitor =
          std::make_unique<core::OnlineMonitor>(*entry.model.detector, config_.monitor);
      it = sessions_.emplace(key, std::move(entry)).first;
      ServeMetrics& sm = serve_metrics();
      sm.sessions_opened.inc();
      sm.sessions_active.add(1);
    } else if (it->second.staged) {
      // Second action of one session inside the batch: its first step
      // must advance the monitor before this one stages.
      flush();
    }
    Entry& entry = it->second;
    if (event.has_timestamp) clock_ = std::max(clock_, event.timestamp);
    entry.last_seen = now;

    // Log before apply (group commit: append() buffers the record; the
    // server flushes the batch to the OS before any of its verdicts
    // become externally visible, so every emitted verdict's event is
    // recoverable).
    if (wal_ != nullptr) wal_->append(encode_event_record(event, pending.seq));
    last_applied_seq_ = std::max(last_applied_seq_, pending.seq);

    entry.staged = true;
    staged.push_back({&event, &entry, action});
  }
  flush();

  if (record && scored > 0) {
    // The timer spans the whole batch; attribute an equal share to each
    // scored step so the histogram's count still equals the step count.
    ServeMetrics& sm = serve_metrics();
    const double share = timer.seconds() / static_cast<double>(scored);
    for (std::size_t i = 0; i < scored; ++i) sm.step_seconds.record(share);
  }
}

void SessionShard::finish_entry(const Entry& entry, ReportReason reason,
                                std::vector<OutputRecord>& out) {
  const core::SessionMonitorReport report = entry.acc.report();
  out.push_back({render_report_record(entry.user_id, entry.session_id, reason, report,
                                      entry.model.version)});
  if (report_observer_) report_observer_(entry.user_id, entry.session_id, reason, report);
  if (tracer_ != nullptr && trace_events().enabled()) {
    const std::string key = session_key(entry.user_id, entry.session_id);
    if (tracer_->sampled(key)) {
      trace_events().record(
          {"session.report", key, trace_now_nanos(), 0, report_trace_args(reason, report)});
    }
  }
  if (history_observer_ && config_.track_history) history_observer_(entry.actions);
  if (shadow_) shadow_->finish(entry.user_id, entry.session_id);
  ServeMetrics& sm = serve_metrics();
  sm.sessions_finished.inc();
  sm.sessions_active.add(-1);
  if (reason == ReportReason::kIdleEviction || reason == ReportReason::kCapacityEviction) {
    sm.sessions_evicted.inc();
  }
}

void SessionShard::evict_lru(std::vector<OutputRecord>& out) {
  if (sessions_.empty()) return;
  // Oldest last_seen wins; ties break on the smaller key so the choice
  // does not depend on hash-map iteration order.
  auto victim = sessions_.begin();
  for (auto it = std::next(sessions_.begin()); it != sessions_.end(); ++it) {
    if (it->second.last_seen < victim->second.last_seen ||
        (it->second.last_seen == victim->second.last_seen && it->first < victim->first)) {
      victim = it;
    }
  }
  finish_entry(victim->second, ReportReason::kCapacityEviction, out);
  sessions_.erase(victim);
}

void SessionShard::finish_sessions(std::vector<std::string> keys, ReportReason reason,
                                   std::vector<OutputRecord>& out) {
  std::sort(keys.begin(), keys.end());
  const auto base = static_cast<std::ptrdiff_t>(out.size());
  for (const std::string& key : keys) {
    const auto it = sessions_.find(key);
    finish_entry(it->second, reason, out);
    sessions_.erase(it);
  }
  std::sort(out.begin() + base, out.end(),
            [](const OutputRecord& a, const OutputRecord& b) { return a.line < b.line; });
}

void SessionShard::sweep(double now, std::uint64_t seq, std::vector<OutputRecord>& out) {
  last_applied_seq_ = std::max(last_applied_seq_, seq);
  std::vector<std::string> expired;
  for (const auto& [key, entry] : sessions_) {
    if (now - entry.last_seen > config_.idle_ttl_seconds) expired.push_back(key);
  }
  finish_sessions(std::move(expired), ReportReason::kIdleEviction, out);
}

void SessionShard::finish_all(std::vector<OutputRecord>& out, ReportReason reason) {
  std::vector<std::string> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) keys.push_back(key);
  finish_sessions(std::move(keys), reason, out);
}

std::vector<SessionSnapshot> SessionShard::snapshot_sessions() const {
  std::vector<const std::string*> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::vector<SessionSnapshot> out;
  out.reserve(keys.size());
  for (const std::string* key : keys) {
    const Entry& entry = sessions_.at(*key);
    SessionSnapshot snap;
    snap.user_id = entry.user_id;
    snap.session_id = entry.session_id;
    snap.actions = entry.actions;
    snap.last_seen = entry.last_seen;
    out.push_back(std::move(snap));
  }
  return out;
}

void SessionShard::restore_session(const SessionSnapshot& snapshot) {
  Entry entry;
  entry.user_id = snapshot.user_id;
  entry.session_id = snapshot.session_id;
  // Restored sessions re-open under the *current* model: snapshots store
  // action histories, not model pins, so after a crash the whole rebuilt
  // state is scored by the version the server booted with.
  entry.model = model_;
  entry.monitor = std::make_unique<core::OnlineMonitor>(*entry.model.detector, config_.monitor);
  for (const int action : snapshot.actions) entry.acc.add(entry.monitor->observe(action));
  if (config_.track_history) entry.actions = snapshot.actions;
  entry.last_seen = snapshot.last_seen;
  sessions_[session_key(snapshot.user_id, snapshot.session_id)] = std::move(entry);
  ServeMetrics& sm = serve_metrics();
  sm.recovered_sessions.inc();
  sm.sessions_active.add(1);
}

void SessionShard::arm_replay_skip() {
  for (auto& [key, entry] : sessions_) {
    entry.replay_skip = entry.actions;
    entry.replay_pos = 0;
  }
}

}  // namespace misuse::serve
