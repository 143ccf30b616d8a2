#include <gtest/gtest.h>

#include <cmath>

#include "core/drift.hpp"
#include "core/scoring.hpp"
#include "synth/portal.hpp"

namespace misuse::core {
namespace {

// --- softmax_weights ------------------------------------------------------

TEST(SoftmaxWeights, SumsToOne) {
  const std::vector<double> scores = {0.01, -0.02, 0.005};
  const auto w = softmax_weights(scores, 100.0);
  double sum = 0.0;
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SoftmaxWeights, HighBetaApproachesArgmax) {
  const std::vector<double> scores = {0.01, 0.03, 0.02};
  const auto w = softmax_weights(scores, 1e4);
  EXPECT_GT(w[1], 0.99);
}

TEST(SoftmaxWeights, ZeroBetaIsUniform) {
  const std::vector<double> scores = {5.0, -3.0, 0.0};
  const auto w = softmax_weights(scores, 0.0);
  for (double v : w) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(SoftmaxWeights, InvariantToScoreShift) {
  const std::vector<double> a = {0.1, 0.2, 0.3};
  const std::vector<double> b = {10.1, 10.2, 10.3};
  const auto wa = softmax_weights(a, 50.0);
  const auto wb = softmax_weights(b, 50.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(wa[i], wb[i], 1e-12);
}

// --- WeightedEnsembleScorer (on a small trained pipeline) ------------------

class ScoringFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 500;
    pc.users = 60;
    pc.action_count = 80;
    pc.seed = 33;
    portal_ = new synth::Portal(pc);
    store_ = new SessionStore(portal_->generate());
    DetectorConfig config;
    config.ensemble.topic_counts = {6};
    config.ensemble.iterations = 30;
    config.expert.target_clusters = 5;
    config.expert.min_cluster_sessions = 10;
    config.lm.hidden = 12;
    config.lm.learning_rate = 0.01f;
    config.lm.epochs = 15;
    config.lm.patience = 0;
    config.lm.batching.batch_size = 8;
    config.lm.batching.window = 32;
    config.assigner.svm.max_training_points = 200;
    config.seed = 3;
    detector_ = new MisuseDetector(MisuseDetector::train(*store_, config));
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete store_;
    delete portal_;
  }
  static synth::Portal* portal_;
  static SessionStore* store_;
  static MisuseDetector* detector_;
};
synth::Portal* ScoringFixture::portal_ = nullptr;
SessionStore* ScoringFixture::store_ = nullptr;
MisuseDetector* ScoringFixture::detector_ = nullptr;

TEST_F(ScoringFixture, MixtureWeightsFormDistribution) {
  const WeightedEnsembleScorer scorer(*detector_, {});
  const auto w = scorer.mixture_weights(store_->at(0).view());
  ASSERT_EQ(w.size(), detector_->cluster_count());
  double sum = 0.0;
  for (double v : w) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(ScoringFixture, WeightedScoreDimensionsMatchArgmaxScore) {
  const WeightedEnsembleScorer scorer(*detector_, {});
  const Session& s = store_->at(10);
  const auto weighted = scorer.score_session(s.view());
  const auto routed = detector_->predict(s.view()).score;
  EXPECT_EQ(weighted.likelihoods.size(), routed.likelihoods.size());
  for (double p : weighted.likelihoods) {
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-6);
  }
}

TEST_F(ScoringFixture, HugeBetaRecoversArgmaxRouting) {
  // With beta -> infinity the mixture collapses onto the argmax cluster,
  // so the weighted score must match the routed score.
  const WeightedEnsembleScorer scorer(*detector_, {.beta = 1e9});
  const Session& s = store_->at(20);
  const auto weighted = scorer.score_session(s.view());
  const auto routed = detector_->predict(s.view()).score;
  ASSERT_EQ(weighted.likelihoods.size(), routed.likelihoods.size());
  for (std::size_t i = 0; i < weighted.likelihoods.size(); ++i) {
    EXPECT_NEAR(weighted.likelihoods[i], routed.likelihoods[i], 1e-5);
  }
}

TEST_F(ScoringFixture, WeightedScoreSeparatesRandomSessions) {
  const WeightedEnsembleScorer scorer(*detector_, {});
  const SessionStore random = portal_->generate_random_sessions(30, 55);
  double real_avg = 0.0, random_avg = 0.0;
  int n_real = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    const auto score = scorer.score_session(store_->at(i).view());
    if (score.likelihoods.empty()) continue;
    real_avg += score.avg_likelihood();
    ++n_real;
  }
  for (const auto& s : random.all()) {
    random_avg += scorer.score_session(s.view()).avg_likelihood();
  }
  real_avg /= n_real;
  random_avg /= 30.0;
  EXPECT_GT(real_avg, 2.0 * random_avg);
}

// --- DriftMonitor ----------------------------------------------------------

SessionStore tiny_store(std::size_t vocab, std::initializer_list<std::vector<int>> sessions) {
  ActionVocab v;
  for (std::size_t i = 0; i < vocab; ++i) v.intern(std::string("A").append(std::to_string(i)));
  SessionStore store(std::move(v));
  std::uint64_t id = 0;
  for (const auto& actions : sessions) {
    Session s;
    s.id = ++id;
    s.actions = actions;
    store.add(std::move(s));
  }
  return store;
}

TEST(JensenShannon, ZeroForIdenticalDistributions) {
  const std::vector<double> a = {10.0, 20.0, 30.0};
  EXPECT_NEAR(jensen_shannon(a, a, 0.5), 0.0, 1e-12);
}

TEST(JensenShannon, ScaleInvariant) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 20.0, 30.0};
  EXPECT_NEAR(jensen_shannon(a, b, 1e-9), 0.0, 1e-6);
}

TEST(JensenShannon, BoundedByLn2) {
  const std::vector<double> a = {100.0, 0.0};
  const std::vector<double> b = {0.0, 100.0};
  const double js = jensen_shannon(a, b, 1e-6);
  EXPECT_GT(js, 0.5);
  EXPECT_LE(js, std::log(2.0) + 1e-9);
}

TEST(JensenShannon, Symmetric) {
  const std::vector<double> a = {5.0, 1.0, 2.0};
  const std::vector<double> b = {1.0, 4.0, 3.0};
  EXPECT_NEAR(jensen_shannon(a, b, 0.5), jensen_shannon(b, a, 0.5), 1e-12);
}

TEST(DriftMonitor, QuietUntilWindowFills) {
  const auto training = tiny_store(4, {{0, 1}, {1, 0}, {0, 1}});
  DriftConfig config;
  config.window_sessions = 40;
  DriftMonitor monitor(training, config);
  // Fewer than window/4 sessions: no judgment yet.
  for (int i = 0; i < 9; ++i) {
    EXPECT_DOUBLE_EQ(monitor.observe(std::vector<int>{3, 3, 3}), 0.0);
  }
  EXPECT_FALSE(monitor.drift_detected());
}

TEST(DriftMonitor, NoDriftOnMatchingTraffic) {
  const auto training = tiny_store(4, {{0, 1, 0, 1}, {1, 0, 1, 0}});
  DriftConfig config;
  config.window_sessions = 20;
  config.threshold = 0.05;
  DriftMonitor monitor(training, config);
  for (int i = 0; i < 30; ++i) monitor.observe(std::vector<int>{0, 1, 0, 1});
  EXPECT_FALSE(monitor.drift_detected());
  // Not exactly zero: the smoothing mass weighs differently against the
  // small training corpus than against the larger window.
  EXPECT_LT(monitor.current_divergence(), 0.03);
}

TEST(DriftMonitor, DetectsDistributionShift) {
  const auto training = tiny_store(4, {{0, 1, 0, 1}, {1, 0, 1, 0}});
  DriftConfig config;
  config.window_sessions = 20;
  config.threshold = 0.05;
  DriftMonitor monitor(training, config);
  // Production traffic moves entirely to actions 2/3.
  for (int i = 0; i < 30; ++i) monitor.observe(std::vector<int>{2, 3, 2, 3});
  EXPECT_TRUE(monitor.drift_detected());
  EXPECT_GT(monitor.current_divergence(), 0.2);
}

TEST(DriftMonitor, SlidingWindowForgetsOldTraffic) {
  const auto training = tiny_store(4, {{0, 1, 0, 1}});
  DriftConfig config;
  config.window_sessions = 10;
  DriftMonitor monitor(training, config);
  for (int i = 0; i < 15; ++i) monitor.observe(std::vector<int>{2, 3});  // drifted
  EXPECT_TRUE(monitor.drift_detected());
  for (int i = 0; i < 15; ++i) monitor.observe(std::vector<int>{0, 1});  // back to normal
  EXPECT_FALSE(monitor.drift_detected());
  EXPECT_EQ(monitor.window_fill(), 10u);
}

}  // namespace
}  // namespace misuse::core
