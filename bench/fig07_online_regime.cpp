// Fig. 7 — "Online regime of approach application. Average of likelihood
// for each next action in each of the testing sessions is calculated for
// two baselines: predicted on every step model, and predicted during
// first 15 actions model." Sequence length restricted to 300 actions.
//
// Shapes to reproduce: the likelihood level is fairly stable over the
// first ~100 actions and then degrades with growing variance; selecting
// the cluster from the first 15 actions gives a more stable curve without
// the early drop of the per-step argmax strategy.
#include <iostream>
#include <vector>

#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/monitor.hpp"

using namespace misuse;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto config = core::ExperimentConfig::from_cli(args);
  core::Experiment experiment = core::Experiment::prepare(config);
  const auto united = experiment.united_test_set();

  const std::size_t max_positions =
      static_cast<std::size_t>(args.integer("max-positions", 300));
  core::PositionCurve argmax_curve(max_positions);
  core::PositionCurve voted_curve(max_positions);

  // The monitor scores only the voted cluster, so the per-step argmax
  // baseline advances every cluster's model itself and reads the
  // prediction of whichever cluster the argmax names at each step.
  const core::MisuseDetector& detector = experiment.detector;
  std::vector<core::MisuseDetector::ClusterState> states;
  std::vector<std::vector<float>> predicted(detector.cluster_count());
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    states.push_back(detector.make_cluster_state(c));
  }
  core::OnlineMonitor monitor(detector, core::MonitorConfig{});
  for (const auto& [session_index, true_cluster] : united) {
    (void)true_cluster;
    const Session& session = experiment.store.at(session_index);
    monitor.reset();
    for (auto& state : states) state.reset();
    for (std::size_t i = 0; i < session.actions.size() && i < max_positions; ++i) {
      const int action = session.actions[i];
      const auto result = monitor.observe(action);
      if (i > 0) {
        const std::vector<float>& argmax_dist = predicted[result.cluster_argmax];
        argmax_curve.add(i, static_cast<double>(argmax_dist[static_cast<std::size_t>(action)]));
      }
      if (result.likelihood_voted) voted_curve.add(i, *result.likelihood_voted);
      for (std::size_t c = 0; c < states.size(); ++c) {
        detector.step_cluster_into(c, states[c], action, predicted[c]);
      }
    }
  }

  std::cout << "=== Fig. 7: online likelihood per action, two cluster-selection strategies ===\n";
  std::cout << "united test set: " << united.size() << " sessions (curves cut at " << max_positions
            << " actions)\n";
  Table table({"action", "sessions", "likelihood_argmax_each_step", "likelihood_first15_vote",
               "stddev_first15_vote"});
  const std::size_t usable = voted_curve.usable_length(3);
  for (std::size_t p = 1; p < usable; ++p) {
    table.add_row({std::to_string(p + 1), std::to_string(voted_curve.count(p)),
                   Table::num(argmax_curve.mean(p), 5), Table::num(voted_curve.mean(p), 5),
                   Table::num(voted_curve.stddev(p), 5)});
  }
  core::emit_table(table, config.results_dir, "fig07_online_regime");

  // Shape check: the voted strategy must not start lower than the
  // per-step argmax strategy (the paper's "without significant drop in
  // the beginning").
  const std::size_t vote = detector.assigner().config().vote_actions;
  double argmax_early = 0.0, voted_early = 0.0;
  std::size_t n = 0;
  for (std::size_t p = 1; p < std::min(usable, vote); ++p) {
    argmax_early += argmax_curve.mean(p);
    voted_early += voted_curve.mean(p);
    ++n;
  }
  std::cout << "\nshape checks vs paper:\n";
  if (n > 0) {
    std::cout << "  early (first " << vote << " actions) avg likelihood — per-step argmax: "
              << Table::num(argmax_early / static_cast<double>(n)) << ", first-15 vote: "
              << Table::num(voted_early / static_cast<double>(n))
              << (voted_early >= argmax_early ? "  (vote is more stable, as in the paper)" : "")
              << "\n";
  }
  return 0;
}
