#include "core/monitor.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/observability.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace misuse::core {

bool TrendDetector::push(double value) {
  // Only the last two windows are ever read; drop the value that falls
  // out of them so a long session keeps 2 * window values, not all.
  if (!history_.empty() && history_.size() >= 2 * window_) history_.erase(history_.begin());
  history_.push_back(value);
  if (history_.size() < 2 * window_) return false;
  const auto end = history_.end();
  const double recent =
      std::accumulate(end - static_cast<std::ptrdiff_t>(window_), end, 0.0) /
      static_cast<double>(window_);
  const double previous = std::accumulate(end - static_cast<std::ptrdiff_t>(2 * window_),
                                          end - static_cast<std::ptrdiff_t>(window_), 0.0) /
                          static_cast<double>(window_);
  return previous > 0.0 && recent < previous * (1.0 - drop_);
}

OnlineMonitor::OnlineMonitor(const MisuseDetector& detector, const MonitorConfig& config)
    : detector_(detector),
      config_(config),
      assignment_(detector.assigner().start_online()),
      trend_(config.trend_window, config.trend_drop) {
  monitor_metrics().sessions.inc();
}

void OnlineMonitor::reset() {
  assignment_.reset();
  lanes_.clear();
  history_.clear();
  previous_action_ = -1;
  trend_.reset();
  step_ = 0;
  monitor_metrics().sessions.inc();
}

OnlineMonitor::StepResult OnlineMonitor::observe(int action) {
  // Per-step telemetry is counters + one histogram record — tens of ns,
  // well inside the monitor's <5% overhead budget (see DESIGN.md). The
  // Timer only runs when recording is on.
  const bool record = metrics_enabled();
  Timer step_timer;
  StepResult result;
  if (Lane* voted = begin_step(action, result)) {
    detector_.step_cluster_into(voted->cluster, voted->state, previous_action_, dist_);
    ++voted->consumed;
  }
  finish_step(action, result);
  if (record) record_step(result, step_timer.seconds());
  return result;
}

OnlineMonitor::Lane& OnlineMonitor::lane(std::size_t c) {
  for (Lane& l : lanes_) {
    if (l.cluster == c) return l;
  }
  lanes_.push_back({c, detector_.make_cluster_state(c), 0});
  return lanes_.back();
}

OnlineMonitor::Lane* OnlineMonitor::begin_step(int action, StepResult& result) {
  assert(action >= 0 && static_cast<std::size_t>(action) < detector_.vocab().size());
  result = StepResult{};
  result.step = ++step_;

  // Cluster routing on the prefix including this action.
  result.ocsvm_scores = assignment_.push(action);
  result.cluster_argmax = assignment_.current_argmax();
  result.cluster_voted = assignment_.voted_cluster();
  result.degraded = detector_.cluster_degraded(result.cluster_voted);
  if (step_ == 1) return nullptr;

  // This action is scored by the voted model's prediction after the
  // previous step_ - 1 actions. A lane the vote just switched to first
  // replays the history it missed: at most vote_actions - 2 steps, as the
  // vote only switches before it seals (unbounded when vote_actions is
  // 0). Its final advance, on the previous action, is the caller's. The
  // replayed distributions are discarded.
  Lane& voted = lane(result.cluster_voted);
  for (; voted.consumed + 2 < step_; ++voted.consumed) {
    detector_.step_cluster_into(voted.cluster, voted.state, history_[voted.consumed], dist_);
  }
  return &voted;
}

void OnlineMonitor::finish_step(int action, StepResult& result) {
  if (result.step > 1) {
    // Alarm policy on the voted strategy (the deployable one).
    const double voted = static_cast<double>(dist_[static_cast<std::size_t>(action)]);
    result.likelihood_voted = voted;
    if (voted < config_.alarm_likelihood) result.alarm = true;
    if (trend_.push(voted)) {
      result.trend_alarm = true;
      result.alarm = true;
    }

    // Explain alarms: what the voted model expected instead.
    if (result.alarm && config_.explain_top_k > 0) {
      std::vector<std::size_t> order(dist_.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      const std::size_t k = std::min(config_.explain_top_k, order.size());
      std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                        order.end(),
                        [this](std::size_t a, std::size_t b) { return dist_[a] > dist_[b]; });
      for (std::size_t i = 0; i < k; ++i) {
        result.expected.push_back(
            {static_cast<int>(order[i]), static_cast<double>(dist_[order[i]])});
      }
    }
  }

  previous_action_ = action;
  if (!assignment_.vote_sealed()) {
    history_.push_back(action);
  } else if (!history_.empty()) {
    // The vote sealed on this step: every later verdict reads the voted
    // lane, which only ever needs the previous action.
    std::erase_if(lanes_, [&](const Lane& l) { return l.cluster != result.cluster_voted; });
    lanes_.shrink_to_fit();
    history_.clear();
    history_.shrink_to_fit();
  }
}

void OnlineMonitor::record_step(const StepResult& result, double seconds) {
  MonitorMetrics& mm = monitor_metrics();
  mm.steps.inc();
  if (result.alarm) mm.alarms.inc();
  if (result.trend_alarm) mm.trend_alarms.inc();
  if (result.cluster_argmax != result.cluster_voted) mm.disagree_steps.inc();
  mm.observe_seconds.record(seconds);
}

void OnlineMonitor::observe_batch(const MisuseDetector& detector,
                                  std::span<OnlineMonitor* const> monitors,
                                  std::span<const int> actions,
                                  std::span<StepResult> results) {
  assert(monitors.size() == actions.size() && monitors.size() == results.size());
  if (monitors.empty()) return;
  const bool record = metrics_enabled();
  Timer batch_timer;
  // Each of the three phases fans out over the global pool: rows (and
  // row blocks) touch only their own monitor, so the lanes share nothing
  // but the read-only detector. At one lane every phase runs inline.
  ThreadPool& pool = global_pool();
  // Routing halves (and any lane catch-up) first, independent per monitor.
  std::vector<Lane*> voted(monitors.size());
  pool.parallel_for(0, monitors.size(), [&](std::size_t i) {
    assert(&monitors[i]->detector_ == &detector);
    voted[i] = monitors[i]->begin_step(actions[i], results[i]);
  });
  // Then each row's final lane advance, batched per cluster (gates and
  // head alike: every verdict reads its row's distribution) in blocks of
  // one kernel pass, so a cluster with many rows spreads over the lanes.
  std::vector<MisuseDetector::ClusterState*> states;
  std::vector<int> previous;
  std::vector<std::vector<float>*> outs;
  struct Block {
    std::size_t cluster, begin, end;
  };
  std::vector<Block> blocks;
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    const std::size_t begin = states.size();
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      if (voted[i] == nullptr || voted[i]->cluster != c) continue;
      states.push_back(&voted[i]->state);
      previous.push_back(monitors[i]->previous_action_);
      outs.push_back(&monitors[i]->dist_);
      ++voted[i]->consumed;
    }
    const std::size_t rows = detector.cluster_rows_per_pass(c);
    for (std::size_t b = begin; b < states.size(); b += rows) {
      blocks.push_back({c, b, std::min(b + rows, states.size())});
    }
  }
  pool.parallel_for(0, blocks.size(), [&](std::size_t k) {
    const Block& block = blocks[k];
    const std::size_t n = block.end - block.begin;
    detector.step_cluster_batch(block.cluster, std::span(states).subspan(block.begin, n),
                                std::span(previous).subspan(block.begin, n),
                                std::span(outs).subspan(block.begin, n));
  });
  pool.parallel_for(0, monitors.size(),
                    [&](std::size_t i) { monitors[i]->finish_step(actions[i], results[i]); });
  if (record) {
    const double per_step = batch_timer.seconds() / static_cast<double>(monitors.size());
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      monitors[i]->record_step(results[i], per_step);
    }
  }
}

void SessionAccumulator::add(const OnlineMonitor::StepResult& step) {
  report_.steps = step.step;
  if (step.alarm) {
    ++report_.alarms;
    if (!report_.first_alarm_step) report_.first_alarm_step = step.step;
  }
  if (step.trend_alarm) ++report_.trend_alarms;
  if (step.degraded) report_.degraded = true;
  if (step.cluster_argmax != step.cluster_voted) ++report_.disagree_steps;
  if (step.likelihood_voted) {
    likelihood_sum_ += *step.likelihood_voted;
    ++scored_steps_;
  }
  report_.voted_cluster = step.cluster_voted;
}

SessionMonitorReport SessionAccumulator::report() const {
  SessionMonitorReport report = report_;
  if (scored_steps_ > 0) {
    report.avg_likelihood_voted = likelihood_sum_ / static_cast<double>(scored_steps_);
  }
  return report;
}

std::vector<SessionMonitorReport> monitor_sessions(
    const MisuseDetector& detector, const MonitorConfig& config,
    std::span<const std::span<const int>> sessions) {
  std::vector<SessionMonitorReport> reports(sessions.size());
  Span batch_span("monitor.batch");
  // Sessions are independent streams: each task replays one session
  // through a private monitor (the shared detector is only read) and
  // fills its own report slot.
  global_pool().parallel_for(0, sessions.size(), [&](std::size_t s) {
    Span session_span("monitor.session");
    OnlineMonitor monitor(detector, config);
    SessionAccumulator acc;
    for (const int action : sessions[s]) acc.add(monitor.observe(action));
    reports[s] = acc.report();
  });
  return reports;
}

}  // namespace misuse::core
