// OnlineMonitor: the paper's realtime use case (§IV-C). A session is
// analyzed action by action "in order to give an alarm for security
// operators as soon as some suspicious behavior is observed".
//
// Both cluster-selection strategies of Fig. 7 are routed every step:
//   * argmax: the cluster with the maximal OC-SVM score at the current
//     step (reported, not scored);
//   * voted: the cluster frozen after a majority vote over the first 15
//     actions (the dataset's average session length), the paper's fix for
//     OC-SVM scores collapsing on long sessions (Fig. 6). Each action is
//     scored under this cluster's model.
//
// Only the voted cluster's model is advanced, and only when a verdict
// reads it: each session keeps one lane (a streaming model state) per
// cluster its vote has named, and a lane replays the session's history
// when the vote first switches to it. When the vote seals the other lanes
// and the history are freed, so past the vote window a session costs one
// model step per action and constant memory.
//
// Alarm policy: a step alarms when the voted-model likelihood of the
// observed action falls below `alarm_likelihood`, or when the moving
// average over `trend_window` steps drops by more than `trend_drop`
// relative to the previous window (the trend detection the paper proposes
// in §V as an improvement over reacting to every low score).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/detector.hpp"

namespace misuse::core {

struct MonitorConfig {
  double alarm_likelihood = 0.02;  // immediate alarm threshold
  std::size_t trend_window = 8;    // moving-average window (actions)
  double trend_drop = 0.5;         // alarm when the average halves
  std::size_t explain_top_k = 3;   // expected actions reported on alarms
};

/// Detects a sustained drop in a likelihood stream: fires when the mean
/// of the last `window` values falls below (1 - drop) times the mean of
/// the `window` values before them. Extracted from the monitor so the
/// §V trend-alarm proposal is testable in isolation.
class TrendDetector {
 public:
  TrendDetector(std::size_t window, double drop) : window_(window), drop_(drop) {}

  /// Feeds one value; returns true when the drop condition holds.
  bool push(double value);
  void reset() { history_.clear(); }
  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  double drop_;
  /// The last 2 * window values, oldest first (all push ever reads).
  std::vector<double> history_;
};

class OnlineMonitor {
 public:
  OnlineMonitor(const MisuseDetector& detector, const MonitorConfig& config);

  /// One of the actions the voted model expected at this step — surfaced
  /// on alarms so the operator sees *what normal would have looked like*
  /// (addressing the semantic-gap complaint of Sommer & Paxson that the
  /// paper cites in SS I).
  struct ExpectedAction {
    int action = 0;
    double probability = 0.0;
  };

  struct StepResult {
    std::size_t step = 0;  // 1-based index of the observed action
    /// OC-SVM scores of every cluster on the current prefix.
    std::vector<double> ocsvm_scores;
    std::size_t cluster_argmax = 0;
    std::size_t cluster_voted = 0;
    /// Likelihood the voted cluster's model assigned to this action
    /// *before* observing it; absent for the first action.
    std::optional<double> likelihood_voted;
    bool alarm = false;
    bool trend_alarm = false;
    /// True when the voted cluster is served by its Markov fallback
    /// because the LSTM section of the archive was corrupt (degraded
    /// mode, core/detector.hpp). Surfaced so downstream consumers can
    /// weigh these verdicts differently.
    bool degraded = false;
    /// On alarm: the top expected actions under the voted model at this
    /// step (empty otherwise).
    std::vector<ExpectedAction> expected;
  };

  /// Feeds one observed action.
  StepResult observe(int action);

  /// Feeds one action into each of `monitors` (all built over `detector`),
  /// writing monitors[i]'s step result for actions[i] into results[i].
  /// A monitor may appear at most once. Lanes catching up after a vote
  /// switch replay per row; each row's final advance, on its previous
  /// action, runs batched per cluster across all monitors (the cluster
  /// model's step_batch, head included), one kernel pass per block of
  /// rows. The routing halves, the blocks and the verdict halves each fan
  /// out over global_pool(). Under either kernel mode this is
  /// bit-identical to calling monitors[i]->observe(actions[i]) in order —
  /// sessions only share read-only weights, and the batch kernels compute
  /// each row exactly as a one-row step does.
  static void observe_batch(const MisuseDetector& detector,
                            std::span<OnlineMonitor* const> monitors,
                            std::span<const int> actions, std::span<StepResult> results);

  /// Starts a new session.
  void reset();

  std::size_t steps() const { return step_; }

 private:
  /// One cluster's model, advanced only as far as verdicts have needed
  /// it. ClusterState routes degraded clusters to their Markov fallback
  /// transparently.
  struct Lane {
    std::size_t cluster = 0;
    MisuseDetector::ClusterState state;
    std::size_t consumed = 0;  // session actions the state has seen
  };

  /// The routing half of a step: bumps step_, routes the action, and
  /// replays the voted cluster's lane up to all but the previous action.
  /// Returns that lane, or null on the first action (nothing to score).
  /// The caller then advances the lane on previous_action_ into dist_.
  Lane* begin_step(int action, StepResult& result);
  /// The verdict half: scores the action against dist_, then records it
  /// and, once the vote seals, frees every lane but the voted one.
  void finish_step(int action, StepResult& result);
  /// The lane of cluster `c`, created fresh if no verdict has read it.
  Lane& lane(std::size_t c);
  void record_step(const StepResult& result, double seconds);

  const MisuseDetector& detector_;
  MonitorConfig config_;
  cluster::ClusterAssigner::OnlineAssignment assignment_;
  /// Lanes of the clusters the vote has named this session (one after
  /// the vote seals).
  std::vector<Lane> lanes_;
  /// The session's actions until the vote seals, so a lane created late
  /// can catch up; freed at the seal.
  std::vector<int> history_;
  int previous_action_ = -1;
  /// The voted lane's next-action distribution after its last advance.
  std::vector<float> dist_;
  TrendDetector trend_;
  std::size_t step_ = 0;
};

/// Whole-session summary of one monitored session in a batch evaluation.
struct SessionMonitorReport {
  std::size_t steps = 0;
  std::size_t alarms = 0;        // steps whose StepResult alarmed
  std::size_t trend_alarms = 0;  // steps where the trend detector fired
  /// Steps where the argmax and voted strategies chose different clusters
  /// (the disagreement Fig. 7 contrasts; also tracked globally as the
  /// monitor.disagree_steps counter).
  std::size_t disagree_steps = 0;
  /// 1-based step of the first alarm, if any.
  std::optional<std::size_t> first_alarm_step;
  /// Voted cluster at the end of the session.
  std::size_t voted_cluster = 0;
  /// True when any step of the session was scored by a degraded
  /// (Markov-fallback) voted cluster.
  bool degraded = false;
  /// Mean voted-model likelihood over the scored steps (steps >= 2); the
  /// session's normality estimate under the online regime.
  double avg_likelihood_voted = 0.0;
};

/// Folds a stream of StepResults into a SessionMonitorReport. Extracted
/// from monitor_sessions so every consumer of the online regime — the
/// offline batch replay below and the streaming server's session table
/// (serve/session_table.hpp) — derives end-of-session reports from the
/// exact same accumulation, keeping the two paths bit-identical.
class SessionAccumulator {
 public:
  /// Folds one observed step (steps must arrive in order).
  void add(const OnlineMonitor::StepResult& step);

  /// Report over the steps added so far (callable repeatedly).
  SessionMonitorReport report() const;

  std::size_t steps() const { return report_.steps; }

 private:
  SessionMonitorReport report_;
  double likelihood_sum_ = 0.0;
  std::size_t scored_steps_ = 0;
};

/// Replays every session through its own OnlineMonitor, fanning the
/// independent sessions out over the global thread pool (each task owns
/// one monitor and one output slot, so reports are index-ordered and
/// bit-identical to a serial replay). This is the batch-evaluation path:
/// the figure benches and threat-hunting sweeps score thousands of
/// recorded sessions at once.
std::vector<SessionMonitorReport> monitor_sessions(
    const MisuseDetector& detector, const MonitorConfig& config,
    std::span<const std::span<const int>> sessions);

}  // namespace misuse::core
