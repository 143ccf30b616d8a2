// Instrument panel of the streaming scoring server. Same pattern as
// core::MonitorMetrics: one process-wide bundle of registry-owned
// instruments, resolved once and shared by the whole process. All updates
// are relaxed atomics, so any thread records without coordination.
#pragma once

#include "util/metrics.hpp"

namespace misuse::serve {

struct ServeMetrics {
  Counter& events;             // serve.events — accepted input events
  Counter& steps;              // serve.steps — scored actions
  Counter& alarms;             // serve.alarms — steps that alarmed
  Counter& parse_errors;       // serve.parse_errors — rejected lines
  Counter& sessions_opened;    // serve.sessions_opened
  Counter& sessions_evicted;   // serve.sessions_evicted — TTL + capacity
  Counter& sessions_finished;  // serve.sessions_finished — all report emissions
  Gauge& sessions_active;      // serve.sessions_active (+ high-water mark)
  HistogramMetric& step_seconds;  // serve.step_seconds — per-event session-table latency

  // Fault tolerance (see DESIGN.md "Fault tolerance").
  Counter& wal_appends;         // serve.wal_appends — records written to the WAL
  Counter& wal_torn_records;    // serve.wal_torn_records — torn tails dropped at recovery
  Counter& snapshot_failures;   // serve.snapshot_failures — checkpoint snapshots that failed
  Counter& recovered_events;    // serve.recovered_events — WAL events replayed at startup
  Counter& recovered_sessions;  // serve.recovered_sessions — sessions restored from snapshots
  Counter& replay_skipped;      // serve.replay_skipped — resume-replay duplicates dropped
  Gauge& degraded_clusters;     // serve.degraded_clusters — clusters on Markov fallback

  // Model lifecycle (see DESIGN.md "Model lifecycle").
  Counter& swaps;                     // serve.swaps — completed hot-swaps
  Counter& swap_sessions_rolled;      // serve.swap_sessions_rolled — sessions finished at a
                                      // vocab-changing swap barrier
  Gauge& model_version;               // serve.model_version — numeric active registry version
  HistogramMetric& swap_pause_seconds;  // serve.swap_pause_seconds — barrier pause per swap
  Gauge& drift_micronats;             // serve.drift_micronats — JS divergence vs training, 1e-6 nats

  // Operations plane (see DESIGN.md "Operations plane").
  Counter& reload_failures;       // serve.reload_failures — registry reloads that threw
  Gauge& reload_failure_streak;   // serve.reload_failure_streak — consecutive failures (0 = ok)
  Counter& admin_scrapes;         // serve.admin.scrapes — admin requests answered
  Counter& admin_errors;          // serve.admin.errors — admin connections that failed mid-reply

  // Shadow / canary scoring (candidate model alongside the active one).
  Counter& shadow_steps;            // serve.shadow.steps — actions scored by the candidate
  Counter& shadow_sessions;         // serve.shadow.sessions — candidate sessions finished
  Counter& shadow_verdict_flips;    // serve.shadow.verdict_flips — alarm disagreements
  Counter& shadow_unknown_actions;  // serve.shadow.unknown_actions — unresolvable under candidate
  HistogramMetric& shadow_loss_delta;  // serve.shadow.loss_delta — |candidate - active| step loss
};

/// The shared bundle; registers the instruments on first call.
ServeMetrics& serve_metrics();

}  // namespace misuse::serve
