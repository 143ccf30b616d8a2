// Shadow / canary scoring: a candidate model rides alongside the active
// one so its behavior on live traffic can be judged *before* promotion.
// A configurable fraction of sessions (1.0 = full shadow mirror, less =
// canary sampling) is mirrored into OnlineMonitors on the candidate;
// each mirrored step is compared against the active model's verdict and
// the disagreement lands in the serve.shadow.* metrics (verdict flips,
// per-step |loss delta|). The shadow path writes ONLY metrics — it never
// emits output records and never touches active-session state, so active
// output stays bit-identical with shadow scoring on or off.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "serve/event.hpp"

namespace misuse::serve {

/// What to shadow-score: the candidate model, which fraction of sessions
/// to mirror, and the monitor settings to score them with.
struct ShadowPlan {
  std::shared_ptr<const core::MisuseDetector> detector;
  std::string version;  // candidate's registry version, for logs
  /// Fraction of sessions mirrored to the candidate, in [0, 1]. Selection
  /// is a deterministic mix of the session key's hash (independent of
  /// ring placement), so the same sessions are canaried on every run and
  /// every replica.
  double fraction = 1.0;
  core::MonitorConfig monitor;
};

/// The session table's shadow scorer, driven under the table's lock (so
/// it needs no locking of its own). Its session map shadows the active
/// table's lifecycle: the table calls observe() after each applied step
/// and finish() whenever a session reports, for any reason.
class ShadowScorer {
 public:
  explicit ShadowScorer(ShadowPlan plan) : plan_(std::move(plan)) {}

  /// Mirrors one applied event; `active_step` is the active model's
  /// verdict for the same action (the disagreement baseline).
  void observe(const Event& event, const core::OnlineMonitor::StepResult& active_step);

  /// The active table finished this session — close the mirror.
  void finish(std::string_view user_id, std::string_view session_id);

  /// Closes every mirror (shadow teardown / server shutdown).
  void finish_all();

  const ShadowPlan& plan() const { return plan_; }
  std::size_t active_sessions() const { return sessions_.size(); }

  /// Whether the deterministic sampler mirrors this session key.
  bool selected(std::string_view key) const;

 private:
  ShadowPlan plan_;
  std::unordered_map<std::string, core::OnlineMonitor> sessions_;
};

}  // namespace misuse::serve
