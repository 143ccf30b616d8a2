// End-to-end integration tests of the full pipeline on a small synthetic
// portal corpus. One fixture is trained once and shared across tests
// (training the pipeline is the expensive part).
#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/evaluation.hpp"
#include "core/monitor.hpp"
#include "synth/portal.hpp"

namespace misuse::core {
namespace {

DetectorConfig small_detector_config() {
  DetectorConfig config;
  config.ensemble.topic_counts = {6, 8};
  config.ensemble.iterations = 40;
  config.expert.target_clusters = 6;
  config.expert.min_cluster_sessions = 10;
  config.lm.hidden = 16;
  config.lm.learning_rate = 0.01f;
  config.lm.epochs = 25;
  config.lm.patience = 0;
  config.lm.batching.window = 32;
  config.lm.batching.batch_size = 8;
  config.assigner.svm.max_training_points = 300;
  config.seed = 99;
  return config;
}

class DetectorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 700;
    pc.users = 80;
    pc.action_count = 80;
    pc.seed = 21;
    portal_ = new synth::Portal(pc);
    store_ = new SessionStore(portal_->generate());
    detector_ = new MisuseDetector(MisuseDetector::train(*store_, small_detector_config()));
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete store_;
    delete portal_;
    detector_ = nullptr;
    store_ = nullptr;
    portal_ = nullptr;
  }

  static synth::Portal* portal_;
  static SessionStore* store_;
  static MisuseDetector* detector_;
};

synth::Portal* DetectorFixture::portal_ = nullptr;
SessionStore* DetectorFixture::store_ = nullptr;
MisuseDetector* DetectorFixture::detector_ = nullptr;

TEST_F(DetectorFixture, ClustersPartitionEligibleSessions) {
  std::set<std::size_t> seen;
  std::size_t eligible = 0;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() >= 2) ++eligible;
  }
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    for (std::size_t i : detector_->cluster(c).members) {
      EXPECT_TRUE(seen.insert(i).second) << "session " << i << " in two clusters";
      EXPECT_GE(store_->at(i).length(), 2u);
    }
  }
  EXPECT_EQ(seen.size(), eligible);
}

TEST_F(DetectorFixture, SplitsAreDisjointAndCoverCluster) {
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    const ClusterInfo& info = detector_->cluster(c);
    std::set<std::size_t> members(info.members.begin(), info.members.end());
    std::set<std::size_t> split_union;
    for (const auto* part : {&info.train, &info.valid, &info.test}) {
      for (std::size_t i : *part) {
        EXPECT_TRUE(members.count(i));
        EXPECT_TRUE(split_union.insert(i).second);
      }
    }
    EXPECT_EQ(split_union.size(), members.size());
    // 70/15/15: train must dominate.
    EXPECT_GT(info.train.size(), info.valid.size());
    EXPECT_GT(info.train.size(), info.test.size());
  }
}

TEST_F(DetectorFixture, ClustersSortedBySizeAscending) {
  for (std::size_t c = 1; c < detector_->cluster_count(); ++c) {
    EXPECT_LE(detector_->cluster(c - 1).size(), detector_->cluster(c).size());
  }
}

TEST_F(DetectorFixture, ClusterLabelsAreNonEmptyActionNames) {
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    const std::string& label = detector_->cluster(c).label;
    EXPECT_FALSE(label.empty());
    EXPECT_NE(label.find("Action"), std::string::npos) << label;
  }
}

TEST_F(DetectorFixture, ClustersAlignWithArchetypes) {
  // The informed clustering must recover real generative structure: NMI
  // with the hidden archetype labels well above chance.
  const double nmi = clustering_nmi(*store_, *detector_);
  EXPECT_GT(nmi, 0.4) << "clustering is not informative of archetypes";
  const auto purity = cluster_archetype_purity(*store_, *detector_);
  double mean_purity = 0.0;
  for (double p : purity) mean_purity += p;
  mean_purity /= static_cast<double>(purity.size());
  EXPECT_GT(mean_purity, 0.5);
}

TEST_F(DetectorFixture, RouteReturnsValidCluster) {
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    for (std::size_t i : detector_->cluster(c).test) {
      const std::size_t routed = detector_->route(store_->at(i).view());
      ASSERT_LT(routed, detector_->cluster_count());
    }
    if (!detector_->cluster(c).test.empty()) break;  // sample is enough
  }
}

TEST_F(DetectorFixture, RoutingBeatsChance) {
  std::size_t correct = 0, total = 0;
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    for (std::size_t i : detector_->cluster(c).test) {
      if (detector_->route(store_->at(i).view()) == c) ++correct;
      ++total;
    }
  }
  ASSERT_GT(total, 0u);
  const double accuracy = static_cast<double>(correct) / static_cast<double>(total);
  const double chance = 1.0 / static_cast<double>(detector_->cluster_count());
  EXPECT_GT(accuracy, 2.0 * chance) << "OC-SVM routing accuracy " << accuracy;
}

TEST_F(DetectorFixture, ModelsScoreOwnClusterSessions) {
  // Each cluster model must assign its own test sessions clearly more
  // likelihood than uniform.
  const double uniform = 1.0 / static_cast<double>(store_->vocab().size());
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    const auto& test = detector_->cluster(c).test;
    if (test.empty()) continue;
    double avg = 0.0;
    std::size_t n = 0;
    for (std::size_t i : test) {
      const auto score = detector_->score_with_cluster(c, store_->at(i).view());
      if (score.likelihoods.empty()) continue;
      avg += score.avg_likelihood();
      ++n;
    }
    if (n == 0) continue;
    avg /= static_cast<double>(n);
    EXPECT_GT(avg, 3.0 * uniform) << "cluster " << c;
  }
}

TEST_F(DetectorFixture, RealSessionsScoreAboveRandomSessions) {
  // The paper's core validation (§IV-D): random sessions must look
  // abnormal to the pipeline.
  const SessionStore random = portal_->generate_random_sessions(60, 77);
  double real_like = 0.0, random_like = 0.0;
  std::size_t n_real = 0;
  for (std::size_t c = 0; c < detector_->cluster_count(); ++c) {
    for (std::size_t i : detector_->cluster(c).test) {
      const auto p = detector_->predict(store_->at(i).view());
      if (p.score.likelihoods.empty()) continue;
      real_like += p.score.avg_likelihood();
      ++n_real;
    }
  }
  real_like /= static_cast<double>(n_real);
  for (const auto& s : random.all()) {
    random_like += detector_->predict(s.view()).score.avg_likelihood();
  }
  random_like /= static_cast<double>(random.size());
  EXPECT_GT(real_like, 3.0 * random_like)
      << "real " << real_like << " vs random " << random_like;
}

TEST_F(DetectorFixture, SaveLoadRoundTripsPredictions) {
  std::stringstream buf;
  BinaryWriter w(buf);
  detector_->save(w);
  BinaryReader r(buf);
  const MisuseDetector loaded = MisuseDetector::load(r);

  EXPECT_EQ(loaded.cluster_count(), detector_->cluster_count());
  const auto& probe = store_->at(detector_->cluster(0).test.empty()
                                     ? detector_->cluster(0).members.front()
                                     : detector_->cluster(0).test.front());
  const auto a = detector_->predict(probe.view());
  const auto b = loaded.predict(probe.view());
  EXPECT_EQ(a.cluster, b.cluster);
  ASSERT_EQ(a.score.likelihoods.size(), b.score.likelihoods.size());
  for (std::size_t i = 0; i < a.score.likelihoods.size(); ++i) {
    EXPECT_EQ(a.score.likelihoods[i], b.score.likelihoods[i]);
  }
  for (std::size_t c = 0; c < loaded.cluster_count(); ++c) {
    EXPECT_EQ(loaded.cluster(c).label, detector_->cluster(c).label);
    EXPECT_EQ(loaded.cluster(c).test, detector_->cluster(c).test);
  }
}

TEST_F(DetectorFixture, OnlineMonitorTracksSession) {
  OnlineMonitor monitor(*detector_, MonitorConfig{});
  const Session& s = store_->at(detector_->cluster(detector_->cluster_count() - 1).test.front());
  ASSERT_GE(s.length(), 2u);
  std::size_t steps = 0;
  for (int action : s.actions) {
    const auto result = monitor.observe(action);
    ++steps;
    EXPECT_EQ(result.step, steps);
    EXPECT_EQ(result.ocsvm_scores.size(), detector_->cluster_count());
    if (steps == 1) {
      EXPECT_FALSE(result.likelihood_voted.has_value());
    } else {
      ASSERT_TRUE(result.likelihood_voted.has_value());
      EXPECT_GE(*result.likelihood_voted, 0.0);
      EXPECT_LE(*result.likelihood_voted, 1.0);
    }
  }
  EXPECT_EQ(monitor.steps(), s.length());
}

TEST_F(DetectorFixture, OnlineMonitorMatchesOfflineScoring) {
  // The voted-cluster likelihood stream must equal score_session under
  // that same cluster's model.
  const Session& s = store_->at(detector_->cluster(detector_->cluster_count() - 1).test.front());
  OnlineMonitor monitor(*detector_, MonitorConfig{});
  std::vector<double> streamed;
  std::size_t final_voted = 0;
  for (int action : s.actions) {
    const auto result = monitor.observe(action);
    if (result.likelihood_voted) streamed.push_back(*result.likelihood_voted);
    final_voted = result.cluster_voted;
  }
  // If the vote never changed mid-session, the streamed likelihoods match
  // the offline per-action scores of the final voted model.
  const auto offline = detector_->score_with_cluster(final_voted, s.view());
  ASSERT_EQ(streamed.size(), offline.likelihoods.size());
  // (Only guaranteed when the voted cluster was stable from step 2 on;
  // check values where the offline model agrees.)
  std::size_t matches = 0;
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    if (std::abs(streamed[i] - offline.likelihoods[i]) < 1e-9) ++matches;
  }
  EXPECT_GT(matches, streamed.size() / 2);
}

TEST_F(DetectorFixture, MonitorResetStartsFresh) {
  OnlineMonitor monitor(*detector_, MonitorConfig{});
  const auto r1 = monitor.observe(0);
  monitor.reset();
  const auto r2 = monitor.observe(0);
  EXPECT_EQ(r2.step, 1u);
  ASSERT_EQ(r1.ocsvm_scores.size(), r2.ocsvm_scores.size());
  for (std::size_t c = 0; c < r1.ocsvm_scores.size(); ++c) {
    EXPECT_DOUBLE_EQ(r1.ocsvm_scores[c], r2.ocsvm_scores[c]);
  }
}

TEST_F(DetectorFixture, AlarmsCarryExpectedActionExplanations) {
  MonitorConfig mc;
  mc.alarm_likelihood = 0.5;  // alarm aggressively so explanations appear
  mc.explain_top_k = 3;
  OnlineMonitor monitor(*detector_, mc);
  const SessionStore random = portal_->generate_random_sessions(5, 321);
  bool saw_explained_alarm = false;
  for (const auto& s : random.all()) {
    monitor.reset();
    for (int action : s.actions) {
      const auto result = monitor.observe(action);
      if (result.alarm) {
        ASSERT_EQ(result.expected.size(), 3u);
        // Explanations are sorted by probability and are valid actions.
        for (std::size_t e = 1; e < result.expected.size(); ++e) {
          EXPECT_GE(result.expected[e - 1].probability, result.expected[e].probability);
        }
        for (const auto& exp : result.expected) {
          EXPECT_GE(exp.action, 0);
          EXPECT_LT(static_cast<std::size_t>(exp.action), store_->vocab().size());
          EXPECT_GT(exp.probability, 0.0);
        }
        saw_explained_alarm = true;
      }
    }
  }
  EXPECT_TRUE(saw_explained_alarm);
}

TEST_F(DetectorFixture, NonAlarmStepsHaveNoExplanations) {
  MonitorConfig mc;
  mc.alarm_likelihood = 0.0;  // nothing can fall below zero
  mc.trend_drop = 1.1;        // trend can never fire either
  OnlineMonitor monitor(*detector_, mc);
  const Session& s = store_->at(detector_->cluster(0).members.front());
  for (int action : s.actions) {
    const auto result = monitor.observe(action);
    EXPECT_FALSE(result.alarm);
    EXPECT_TRUE(result.expected.empty());
  }
}

TEST_F(DetectorFixture, RandomSessionsTriggerAlarms) {
  const SessionStore random = portal_->generate_random_sessions(30, 123);
  MonitorConfig mc;
  mc.alarm_likelihood = 0.02;
  std::size_t alarmed_sessions = 0;
  for (const auto& s : random.all()) {
    OnlineMonitor monitor(*detector_, mc);
    bool alarmed = false;
    for (int action : s.actions) alarmed |= monitor.observe(action).alarm;
    alarmed_sessions += alarmed ? 1 : 0;
  }
  EXPECT_GT(alarmed_sessions, random.size() / 2);
}

}  // namespace
}  // namespace misuse::core
