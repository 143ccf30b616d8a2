#include "core/evaluation.hpp"

#include <gtest/gtest.h>

namespace misuse::core {
namespace {

TEST(PositionCurve, MeansPerPosition) {
  PositionCurve curve(5);
  curve.add(0, 1.0);
  curve.add(0, 3.0);
  curve.add(1, 10.0);
  EXPECT_DOUBLE_EQ(curve.mean(0), 2.0);
  EXPECT_DOUBLE_EQ(curve.mean(1), 10.0);
  EXPECT_DOUBLE_EQ(curve.mean(2), 0.0);
  EXPECT_EQ(curve.count(0), 2u);
}

TEST(PositionCurve, IgnoresOutOfRangePositions) {
  PositionCurve curve(3);
  curve.add(7, 100.0);  // silently dropped
  EXPECT_EQ(curve.count(2), 0u);
}

TEST(PositionCurve, StddevMatchesSample) {
  PositionCurve curve(2);
  curve.add(0, 2.0);
  curve.add(0, 4.0);
  curve.add(0, 6.0);
  EXPECT_NEAR(curve.stddev(0), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(curve.stddev(1), 0.0);
}

TEST(PositionCurve, UsableLengthRespectsMinCount) {
  PositionCurve curve(10);
  for (int i = 0; i < 5; ++i) curve.add(0, 1.0);
  for (int i = 0; i < 5; ++i) curve.add(1, 1.0);
  curve.add(2, 1.0);
  EXPECT_EQ(curve.usable_length(5), 2u);
  EXPECT_EQ(curve.usable_length(1), 3u);
  EXPECT_EQ(curve.usable_length(100), 0u);
}

TEST(AllIndices, EnumeratesRange) {
  const auto idx = all_indices(4);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(all_indices(0).empty());
}

TEST(SummarizeNormality, AggregatesScores) {
  ActionVocab vocab;
  vocab.intern("A");
  vocab.intern("B");
  SessionStore store(std::move(vocab));
  for (int i = 0; i < 3; ++i) {
    Session s;
    s.id = static_cast<std::uint64_t>(i);
    s.actions = {0, 1, 0};
    store.add(std::move(s));
  }
  const auto indices = all_indices(store.size());
  const auto summary = summarize_normality(store, indices, [](std::span<const int>) {
    nn::NextActionModel::SessionScore score;
    score.likelihoods = {0.5, 0.5};
    score.losses = {0.7, 0.7};
    return score;
  });
  EXPECT_EQ(summary.sessions, 3u);
  EXPECT_NEAR(summary.avg_likelihood, 0.5, 1e-12);
  EXPECT_NEAR(summary.avg_loss, 0.7, 1e-12);
  EXPECT_NEAR(summary.likelihood_stddev, 0.0, 1e-12);
}

TEST(SummarizeNormality, SkipsUnscorableSessions) {
  ActionVocab vocab;
  vocab.intern("A");
  SessionStore store(std::move(vocab));
  Session s;
  s.actions = {0};
  store.add(std::move(s));
  const auto indices = all_indices(1);
  const auto summary = summarize_normality(store, indices, [](std::span<const int>) {
    return nn::NextActionModel::SessionScore{};  // empty = unscorable
  });
  EXPECT_EQ(summary.sessions, 0u);
}

TEST(BaselineTraining, TrainsOnGivenIndices) {
  ActionVocab vocab;
  for (int i = 0; i < 4; ++i) vocab.intern(std::string("A").append(std::to_string(i)));
  SessionStore store(std::move(vocab));
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    Session s;
    s.id = static_cast<std::uint64_t>(i);
    for (int j = 0; j < 8; ++j) s.actions.push_back(j % 4);
    store.add(std::move(s));
  }
  lm::LmConfig config;
  config.hidden = 8;
  config.learning_rate = 0.01f;
  config.epochs = 25;
  config.patience = 0;
  config.batching.window = 16;
  config.batching.batch_size = 8;
  auto model = train_baseline_model(store, all_indices(store.size()), config,
                                    store.vocab().size(), 7);
  const auto stats = evaluate_model_on(model, store, all_indices(store.size()));
  EXPECT_GT(stats.predictions, 0u);
  EXPECT_GT(stats.accuracy, 0.8);  // deterministic cycle is learnable
}

}  // namespace
}  // namespace misuse::core
