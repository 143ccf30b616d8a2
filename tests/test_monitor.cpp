// Differential test of OnlineMonitor's lazy per-session lanes. The
// reference below is the eager algorithm the lanes replace: every
// cluster's model advances on every action, and each verdict reads the
// voted cluster's prediction from the step before. The lazy monitor must
// agree with it bit for bit on every field a verdict carries, across vote
// switches inside the window, the seal, degraded clusters, reset(), and
// batched stepping.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "nn/infer/dispatch.hpp"
#include "synth/portal.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::core {
namespace {

using StepResult = OnlineMonitor::StepResult;

/// The all-cluster lockstep monitor: k streaming states, all advanced on
/// every action. Its trend alarm keeps the whole likelihood history.
class EagerMonitor {
 public:
  EagerMonitor(const MisuseDetector& detector, const MonitorConfig& config)
      : detector_(detector), config_(config), assignment_(detector.assigner().start_online()) {
    for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
      states_.push_back(detector.make_cluster_state(c));
    }
    dists_.resize(detector.cluster_count());
  }

  StepResult observe(int action) {
    StepResult result;
    result.step = ++step_;
    result.ocsvm_scores = assignment_.push(action);
    result.cluster_argmax = assignment_.current_argmax();
    result.cluster_voted = assignment_.voted_cluster();
    result.degraded = detector_.cluster_degraded(result.cluster_voted);
    if (step_ > 1) {
      const std::vector<float>& dist = dists_[result.cluster_voted];
      const double voted = static_cast<double>(dist[static_cast<std::size_t>(action)]);
      result.likelihood_voted = voted;
      if (voted < config_.alarm_likelihood) result.alarm = true;
      if (trend_fires(voted)) {
        result.trend_alarm = true;
        result.alarm = true;
      }
      if (result.alarm && config_.explain_top_k > 0) {
        std::vector<std::size_t> order(dist.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        const std::size_t k = std::min(config_.explain_top_k, order.size());
        std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                          order.end(),
                          [&dist](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
        for (std::size_t i = 0; i < k; ++i) {
          result.expected.push_back(
              {static_cast<int>(order[i]), static_cast<double>(dist[order[i]])});
        }
      }
    }
    for (std::size_t c = 0; c < states_.size(); ++c) {
      detector_.step_cluster_into(c, states_[c], action, dists_[c]);
    }
    return result;
  }

 private:
  bool trend_fires(double value) {
    history_.push_back(value);
    const std::size_t w = config_.trend_window;
    if (history_.size() < 2 * w) return false;
    const auto end = history_.end();
    const double recent =
        std::accumulate(end - static_cast<std::ptrdiff_t>(w), end, 0.0) / static_cast<double>(w);
    const double previous = std::accumulate(end - static_cast<std::ptrdiff_t>(2 * w),
                                            end - static_cast<std::ptrdiff_t>(w), 0.0) /
                            static_cast<double>(w);
    return previous > 0.0 && recent < previous * (1.0 - config_.trend_drop);
  }

  const MisuseDetector& detector_;
  MonitorConfig config_;
  cluster::ClusterAssigner::OnlineAssignment assignment_;
  std::vector<MisuseDetector::ClusterState> states_;
  std::vector<std::vector<float>> dists_;
  std::vector<double> history_;
  std::size_t step_ = 0;
};

::testing::AssertionResult same_step(const StepResult& got, const StepResult& want) {
  const auto fail = [&](const char* field) {
    return ::testing::AssertionFailure() << field << " differs at step " << want.step;
  };
  if (got.step != want.step) return fail("step");
  if (got.ocsvm_scores != want.ocsvm_scores) return fail("ocsvm_scores");
  if (got.cluster_argmax != want.cluster_argmax) return fail("cluster_argmax");
  if (got.cluster_voted != want.cluster_voted) return fail("cluster_voted");
  if (got.likelihood_voted != want.likelihood_voted) return fail("likelihood_voted");
  if (got.alarm != want.alarm) return fail("alarm");
  if (got.trend_alarm != want.trend_alarm) return fail("trend_alarm");
  if (got.degraded != want.degraded) return fail("degraded");
  if (got.expected.size() != want.expected.size()) return fail("expected");
  for (std::size_t i = 0; i < want.expected.size(); ++i) {
    if (got.expected[i].action != want.expected[i].action ||
        got.expected[i].probability != want.expected[i].probability) {
      return fail("expected");
    }
  }
  return ::testing::AssertionSuccess();
}

const SessionStore& store() {
  static const SessionStore s = [] {
    synth::PortalConfig pc;
    pc.sessions = 200;
    pc.users = 40;
    pc.action_count = 50;
    pc.seed = 7;
    return synth::Portal(pc).generate();
  }();
  return s;
}

/// Cluster model architectures: the paper's, which steps through the
/// kernel table, and three that step layer by layer.
enum class ModelShape { kPaper, kGru, kTwoLayers, kEmbedding };

/// A small detector whose vote seals after `vote_actions` steps.
const MisuseDetector& detector(std::size_t vote_actions, ModelShape shape = ModelShape::kPaper) {
  static std::map<std::pair<std::size_t, ModelShape>, std::unique_ptr<MisuseDetector>> trained;
  auto& slot = trained[{vote_actions, shape}];
  if (!slot) {
    DetectorConfig dc;
    dc.ensemble.topic_counts = {8, 10};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 4;
    dc.expert.min_cluster_sessions = 5;
    dc.assigner.vote_actions = vote_actions;
    dc.lm.hidden = 8;
    dc.lm.epochs = 4;
    dc.lm.learning_rate = 2e-2f;  // trained past uniform, so likelihoods can drop
    dc.lm.patience = 0;
    if (shape == ModelShape::kGru) dc.lm.cell = nn::CellKind::kGru;
    if (shape == ModelShape::kTwoLayers) dc.lm.layers = 2;
    if (shape == ModelShape::kEmbedding) dc.lm.embedding_dim = 5;
    slot = std::make_unique<MisuseDetector>(MisuseDetector::train(store(), dc));
  }
  return *slot;
}

std::string save(const MisuseDetector& d) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  d.save(writer);
  return out.str();
}

MisuseDetector load(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader reader(in);
  return MisuseDetector::load(reader);
}

/// The vote-15 detector reloaded with one cluster's LSTM section
/// corrupt, so that cluster scores through its Markov fallback. Sweeps
/// single-byte flips until one degrades exactly one cluster; null if
/// none does.
std::unique_ptr<MisuseDetector> load_with_one_degraded_cluster() {
  const std::string archive = save(detector(15));
  // Most flips land in a section whose corruption the load logs.
  const LogLevel level = log_level();
  set_log_level(LogLevel::kError);
  std::unique_ptr<MisuseDetector> found;
  for (std::size_t offset = archive.size() / 2; offset < archive.size() && !found; offset += 61) {
    std::string corrupt = archive;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    try {
      auto candidate = std::make_unique<MisuseDetector>(load(corrupt));
      if (candidate->degraded_cluster_count() == 1) found = std::move(candidate);
    } catch (const SerializeError&) {
    }
  }
  set_log_level(level);
  return found;
}

const MisuseDetector* degraded_detector() {
  static const std::unique_ptr<MisuseDetector> loaded = load_with_one_degraded_cluster();
  return loaded.get();
}

int cycled(const std::vector<int>& from, std::size_t i) {
  return from[i % from.size()];
}

/// Sessions of every length from 1 to 60 actions, four of each: a real
/// session, two clusters' sessions stitched together early (so the
/// argmax, and with it the open vote, switches inside the window),
/// uniformly random actions, and a real session turning random halfway
/// (a likelihood drop for the trend alarm).
std::vector<std::vector<int>> sessions_for(const MisuseDetector& d) {
  std::vector<const std::vector<int>*> by_cluster;
  for (std::size_t c = 0; c < d.cluster_count(); ++c) {
    for (const std::size_t m : d.cluster(c).members) {
      if (store().at(m).length() >= 4) {
        by_cluster.push_back(&store().at(m).actions);
        break;
      }
    }
  }
  Rng rng(11);
  std::vector<std::vector<int>> sessions;
  for (std::size_t len = 1; len <= 60; ++len) {
    const std::vector<int>& a = *by_cluster[len % by_cluster.size()];
    const std::vector<int>& b = *by_cluster[(len + 1) % by_cluster.size()];
    const std::size_t cut = 2 + len % 9;
    std::vector<int> real, stitched, random, turning;
    for (std::size_t i = 0; i < len; ++i) {
      real.push_back(cycled(a, i));
      stitched.push_back(i < cut ? cycled(a, i) : cycled(b, i));
      random.push_back(static_cast<int>(rng.uniform_index(d.vocab().size())));
      turning.push_back(2 * i < len ? cycled(a, i) : random.back());
    }
    sessions.push_back(real);
    sessions.push_back(stitched);
    sessions.push_back(random);
    sessions.push_back(turning);
  }
  return sessions;
}

/// What a differential run exercised, so each test can insist its
/// interesting cases actually occurred.
struct Coverage {
  std::size_t steps = 0;
  std::size_t late_lanes = 0;  // steps whose voted cluster first appeared at step >= 3
  std::size_t alarms = 0;
  std::size_t trend_alarms = 0;
  std::size_t degraded = 0;
};

void tally(const StepResult& want, std::set<std::size_t>& voted_so_far, Coverage& coverage) {
  ++coverage.steps;
  coverage.alarms += want.alarm ? 1 : 0;
  coverage.trend_alarms += want.trend_alarm ? 1 : 0;
  coverage.degraded += want.degraded ? 1 : 0;
  // A cluster the vote first names at step >= 3 makes a lane replay history.
  if (want.step >= 2 && voted_so_far.insert(want.cluster_voted).second && want.step >= 3) {
    ++coverage.late_lanes;
  }
}

/// Replays every session through a lazy and an eager monitor, one action
/// at a time; fails at the first differing field.
Coverage expect_matches_eager(const MisuseDetector& d, const MonitorConfig& config) {
  Coverage coverage;
  for (const auto& session : sessions_for(d)) {
    OnlineMonitor lazy(d, config);
    EagerMonitor eager(d, config);
    std::set<std::size_t> voted_so_far;
    for (const int action : session) {
      const StepResult want = eager.observe(action);
      const ::testing::AssertionResult same = same_step(lazy.observe(action), want);
      EXPECT_TRUE(same) << "session length " << session.size();
      if (!same) return coverage;
      tally(want, voted_so_far, coverage);
    }
  }
  return coverage;
}

/// A trend alarm that fires within short sessions.
MonitorConfig short_trend() {
  MonitorConfig config;
  config.trend_window = 3;
  config.trend_drop = 0.2;
  return config;
}

TEST(MonitorLanes, MatchesEagerReferenceWithFifteenActionVote) {
  const MisuseDetector& d = detector(15);
  ASSERT_GE(d.cluster_count(), 3u);
  const Coverage coverage = expect_matches_eager(d, MonitorConfig{});
  EXPECT_GT(coverage.late_lanes, 0u) << "no vote switched to a fresh cluster inside the window";
  EXPECT_GT(coverage.alarms, 0u);
  const Coverage trend = expect_matches_eager(d, short_trend());
  EXPECT_GT(trend.trend_alarms, 0u);
}

TEST(MonitorLanes, MatchesEagerReferenceWhenVoteNeverSeals) {
  // vote_actions 0: the vote follows the argmax for the whole session,
  // so lanes keep catching up past step 15.
  const Coverage coverage = expect_matches_eager(detector(0), short_trend());
  EXPECT_GT(coverage.late_lanes, 0u);
}

TEST(MonitorLanes, MatchesEagerReferenceWhenVoteSealsOnFirstAction) {
  const Coverage coverage = expect_matches_eager(detector(1), short_trend());
  EXPECT_EQ(coverage.late_lanes, 0u) << "a vote sealed at step 1 can never switch";
  EXPECT_GT(coverage.steps, 0u);
}

TEST(MonitorLanes, MatchesEagerReferenceWithDegradedCluster) {
  const MisuseDetector* d = degraded_detector();
  ASSERT_NE(d, nullptr) << "no single-byte flip degraded exactly one cluster";
  const Coverage coverage = expect_matches_eager(*d, MonitorConfig{});
  EXPECT_GT(coverage.degraded, 0u) << "no verdict read the Markov-fallback cluster";
}

TEST(MonitorLanes, ResetMidSessionStartsAFreshSession) {
  const MisuseDetector& d = detector(15);
  const auto sessions = sessions_for(d);
  // Cut a session before, at and past the vote window's seal, reset, and
  // replay another session: the reused monitor must match a
  // fresh eager one from its first action.
  OnlineMonitor lazy(d, MonitorConfig{});
  for (const std::size_t cut : {1u, 2u, 7u, 14u, 15u, 16u, 40u}) {
    for (std::size_t s = 0; s + 1 < sessions.size(); s += 17) {
      for (std::size_t i = 0; i < cut && i < sessions[s].size(); ++i) {
        (void)lazy.observe(sessions[s][i]);
      }
      lazy.reset();
      EXPECT_EQ(lazy.steps(), 0u);
      EagerMonitor eager(d, MonitorConfig{});
      for (const int action : sessions[s + 1]) {
        ASSERT_TRUE(same_step(lazy.observe(action), eager.observe(action)))
            << "cut " << cut << ", session " << s + 1;
      }
      lazy.reset();
    }
  }
}

/// Steps `sessions` through observe_batch in rounds: each round batches
/// the next action of every session still running, in a rotating order,
/// so batches mix steps before, at and after the seal and rows voting for
/// different clusters. Each row must match a per-monitor observe(), and
/// that the eager reference, exactly.
void expect_batch_matches_observe(const MisuseDetector& d) {
  const auto all = sessions_for(d);
  std::vector<std::vector<int>> sessions;
  for (std::size_t s = 0; s < all.size(); s += 7) sessions.push_back(all[s]);
  const MonitorConfig config = short_trend();
  std::vector<std::unique_ptr<OnlineMonitor>> batched, single;
  std::vector<std::unique_ptr<EagerMonitor>> eager;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    batched.push_back(std::make_unique<OnlineMonitor>(d, config));
    single.push_back(std::make_unique<OnlineMonitor>(d, config));
    eager.push_back(std::make_unique<EagerMonitor>(d, config));
  }
  std::vector<std::size_t> cursor(sessions.size(), 0);
  std::size_t mixed_batches = 0;
  for (std::size_t round = 0;; ++round) {
    std::vector<std::size_t> rows;
    for (std::size_t j = 0; j < sessions.size(); ++j) {
      const std::size_t s = (j + round) % sessions.size();
      // Sessions start staggered, so early rounds mix first actions with
      // later ones.
      if (round >= s % 5 && cursor[s] < sessions[s].size()) rows.push_back(s);
    }
    if (rows.empty() && round > 5) break;
    std::vector<OnlineMonitor*> monitors;
    std::vector<int> actions;
    for (const std::size_t s : rows) {
      monitors.push_back(batched[s].get());
      actions.push_back(sessions[s][cursor[s]]);
    }
    std::vector<StepResult> results(rows.size());
    OnlineMonitor::observe_batch(d, monitors, actions, results);
    std::set<std::size_t> clusters;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t s = rows[r];
      const StepResult want = eager[s]->observe(actions[r]);
      const StepResult alone = single[s]->observe(actions[r]);
      ASSERT_TRUE(same_step(alone, want)) << "session " << s;
      ASSERT_TRUE(same_step(results[r], alone)) << "session " << s;
      ++cursor[s];
      if (want.step >= 2) clusters.insert(want.cluster_voted);
    }
    if (clusters.size() > 1) ++mixed_batches;
  }
  EXPECT_GT(mixed_batches, 0u) << "no batch advanced more than one cluster";
}

TEST(MonitorLanes, ObserveBatchMatchesPerMonitorObserveOnMixedClusterBatches) {
  expect_batch_matches_observe(detector(15));
  expect_batch_matches_observe(detector(0));
  ASSERT_NE(degraded_detector(), nullptr);
  expect_batch_matches_observe(*degraded_detector());
  expect_batch_matches_observe(detector(15, ModelShape::kGru));
  expect_batch_matches_observe(detector(15, ModelShape::kTwoLayers));
  expect_batch_matches_observe(detector(15, ModelShape::kEmbedding));
}

/// Restores the process-wide kernel mode a test changes.
struct InferModeGuard {
  nn::infer::InferMode mode = nn::infer::infer_mode();
  ~InferModeGuard() { nn::infer::set_infer_mode(mode); }
};

TEST(MonitorLanes, ObserveBatchStaysCloseToObserveOnFusedAvx2Tiles) {
  // The scalar kernels never fuse rows, so only this mode runs the
  // deferred-head tile path that observe_batch's grouping feeds. The
  // tiles give every row the one-row kernels' FMA chains, so "close" is
  // exact here too.
  if (!nn::infer::avx2_supported()) GTEST_SKIP() << "avx2 kernels unavailable on this host";
  InferModeGuard guard;
  nn::infer::set_infer_mode(nn::infer::InferMode::kAvx2);
  expect_batch_matches_observe(detector(15));
  expect_batch_matches_observe(detector(0));
}

TEST(MonitorLanes, OfflineScoresEqualStreamedStepsUnderAvx2) {
  // Offline scoring steps the same streaming forward as the monitor, so
  // it follows the kernel mode too: under avx2 a session's offline
  // likelihoods equal the streamed ones bit for bit.
  if (!nn::infer::avx2_supported()) GTEST_SKIP() << "avx2 kernels unavailable on this host";
  InferModeGuard guard;
  nn::infer::set_infer_mode(nn::infer::InferMode::kAvx2);
  const MisuseDetector& d = detector(15);
  std::size_t compared = 0;
  for (const auto& session : sessions_for(d)) {
    for (std::size_t c = 0; c < d.cluster_count(); ++c) {
      const auto offline = d.score_with_cluster(c, session);
      MisuseDetector::ClusterState state = d.make_cluster_state(c);
      std::vector<float> dist;
      for (std::size_t i = 0; i + 1 < session.size(); ++i) {
        d.step_cluster_into(c, state, session[i], dist);
        const double streamed =
            std::max(static_cast<double>(dist[static_cast<std::size_t>(session[i + 1])]), 1e-12);
        ASSERT_LT(i, offline.likelihoods.size());
        ASSERT_EQ(offline.likelihoods[i], streamed)
            << "cluster " << c << ", session length " << session.size() << ", step " << i;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace misuse::core
