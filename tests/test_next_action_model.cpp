#include "nn/next_action_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <sstream>

namespace misuse::nn {
namespace {

// Deterministic cyclic grammar 0 -> 1 -> 2 -> ... -> v-1 -> 0: perfectly
// learnable, so a correct implementation must reach ~100% accuracy.
SequenceBatch cycle_batch(std::size_t vocab, std::size_t t_steps, std::size_t batch_size) {
  SequenceBatch b;
  b.tokens.resize(t_steps);
  b.targets.resize(t_steps);
  for (std::size_t t = 0; t < t_steps; ++t) {
    b.tokens[t].resize(batch_size);
    b.targets[t].resize(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      const int cur = static_cast<int>((t + i) % vocab);
      b.tokens[t][i] = cur;
      b.targets[t][i] = static_cast<int>((cur + 1) % vocab);
    }
  }
  return b;
}

TEST(NextActionModel, TargetCountHonorsIgnore) {
  SequenceBatch b = cycle_batch(4, 3, 2);
  EXPECT_EQ(b.target_count(), 6u);
  b.targets[0][0] = kIgnoreTarget;
  EXPECT_EQ(b.target_count(), 5u);
}

TEST(NextActionModel, ParameterCountMatchesArchitecture) {
  Rng rng(1);
  ModelConfig config{.vocab = 10, .hidden = 8, .dropout = 0.4f};
  NextActionModel model(config, rng);
  // LSTM: 10*32 + 8*32 + 32; Dense: 8*10 + 10.
  EXPECT_EQ(model.parameter_count(), 10u * 32 + 8 * 32 + 32 + 8 * 10 + 10);
}

TEST(NextActionModel, LearnsDeterministicCycle) {
  Rng rng(2);
  ModelConfig config{.vocab = 5, .hidden = 16, .dropout = 0.0f};
  NextActionModel model(config, rng);
  Adam adam(0.01f);
  const SequenceBatch batch = cycle_batch(5, 10, 5);
  for (int epoch = 0; epoch < 150; ++epoch) {
    model.train_batch(batch, adam, rng);
  }
  const XentResult eval = model.evaluate(batch);
  EXPECT_GT(eval.accuracy(), 0.99);
  EXPECT_LT(eval.mean_loss(), 0.1);
}

TEST(NextActionModel, TrainingReducesLoss) {
  Rng rng(3);
  ModelConfig config{.vocab = 6, .hidden = 12, .dropout = 0.2f};
  NextActionModel model(config, rng);
  Adam adam(0.005f);
  const SequenceBatch batch = cycle_batch(6, 8, 4);
  const double initial = model.evaluate(batch).mean_loss();
  for (int i = 0; i < 80; ++i) model.train_batch(batch, adam, rng);
  const double trained = model.evaluate(batch).mean_loss();
  EXPECT_LT(trained, initial * 0.5);
}

TEST(NextActionModel, InitialLossNearUniform) {
  Rng rng(4);
  ModelConfig config{.vocab = 50, .hidden = 8, .dropout = 0.0f};
  NextActionModel model(config, rng);
  const SequenceBatch batch = cycle_batch(50, 5, 3);
  // An untrained model should be near the uniform-prediction loss log(d).
  EXPECT_NEAR(model.evaluate(batch).mean_loss(), std::log(50.0), 0.5);
}

TEST(NextActionModel, GradClippingBoundsReportedNorm) {
  Rng rng(5);
  ModelConfig config{.vocab = 8, .hidden = 8, .dropout = 0.0f};
  NextActionModel model(config, rng);
  Sgd sgd(0.1f);
  const SequenceBatch batch = cycle_batch(8, 6, 4);
  const auto stats = model.train_batch(batch, sgd, rng, /*clip_norm=*/0.001f);
  EXPECT_GT(stats.grad_norm, 0.0f);  // pre-clip norm reported
  EXPECT_EQ(stats.targets, batch.target_count());
}

TEST(NextActionModel, StepReturnsDistribution) {
  Rng rng(6);
  ModelConfig config{.vocab = 7, .hidden = 4, .dropout = 0.4f};
  NextActionModel model(config, rng);
  ModelState state = model.make_state();
  const auto probs = model.step(state, 3);
  ASSERT_EQ(probs.size(), 7u);
  double sum = 0.0;
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(NextActionModel, StreamingMatchesBatchedEvaluation) {
  Rng rng(7);
  ModelConfig config{.vocab = 6, .hidden = 10, .dropout = 0.0f};
  NextActionModel model(config, rng);
  const std::vector<int> session = {0, 3, 1, 5, 2, 4};

  // Batched: one batch row, full-session targets.
  SequenceBatch batch;
  for (std::size_t i = 0; i + 1 < session.size(); ++i) {
    batch.tokens.push_back({session[i]});
    batch.targets.push_back({session[i + 1]});
  }
  const auto batched = model.target_likelihoods(batch);

  // Streaming via score_session.
  const auto score = model.score_session(session);
  ASSERT_EQ(batched.size(), score.likelihoods.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_NEAR(batched[i], score.likelihoods[i], 1e-5);
  }
}

TEST(NextActionModel, ScoreSessionTooShortIsEmpty) {
  Rng rng(8);
  ModelConfig config{.vocab = 5, .hidden = 4, .dropout = 0.0f};
  NextActionModel model(config, rng);
  EXPECT_TRUE(model.score_session(std::vector<int>{2}).likelihoods.empty());
  EXPECT_TRUE(model.score_session(std::vector<int>{}).likelihoods.empty());
}

TEST(NextActionModel, SessionScoreAggregates) {
  NextActionModel::SessionScore s;
  s.likelihoods = {0.5, 0.25};
  s.losses = {-std::log(0.5), -std::log(0.25)};
  EXPECT_NEAR(s.avg_likelihood(), 0.375, 1e-12);
  EXPECT_NEAR(s.avg_loss(), (std::log(2.0) + std::log(4.0)) / 2.0, 1e-12);
  EXPECT_NEAR(s.perplexity(), std::exp(s.avg_loss()), 1e-12);
}

TEST(NextActionModel, TrainedModelScoresGrammarAboveRandom) {
  Rng rng(9);
  ModelConfig config{.vocab = 5, .hidden = 16, .dropout = 0.0f};
  NextActionModel model(config, rng);
  Adam adam(0.01f);
  const SequenceBatch batch = cycle_batch(5, 10, 5);
  for (int i = 0; i < 120; ++i) model.train_batch(batch, adam, rng);

  const std::vector<int> grammatical = {0, 1, 2, 3, 4, 0, 1, 2};
  const std::vector<int> scrambled = {0, 0, 3, 1, 4, 2, 2, 0};
  const double p_good = model.score_session(grammatical).avg_likelihood();
  const double p_bad = model.score_session(scrambled).avg_likelihood();
  EXPECT_GT(p_good, 0.8);
  EXPECT_GT(p_good, p_bad * 2);
}

TEST(NextActionModel, SaveLoadRoundTripsPredictionsExactly) {
  Rng rng(10);
  ModelConfig config{.vocab = 9, .hidden = 6, .dropout = 0.4f};
  NextActionModel model(config, rng);
  std::stringstream buf;
  BinaryWriter w(buf);
  model.save(w);
  BinaryReader r(buf);
  NextActionModel loaded = NextActionModel::load(r);

  const std::vector<int> session = {1, 7, 3, 0, 8, 2};
  const auto a = model.score_session(session);
  const auto b = loaded.score_session(session);
  ASSERT_EQ(a.likelihoods.size(), b.likelihoods.size());
  for (std::size_t i = 0; i < a.likelihoods.size(); ++i) {
    EXPECT_EQ(a.likelihoods[i], b.likelihoods[i]);
  }
  EXPECT_EQ(loaded.config().hidden, 6u);
  EXPECT_FLOAT_EQ(loaded.config().dropout, 0.4f);
}

TEST(NextActionModel, LoadRejectsGarbage) {
  std::stringstream buf;
  BinaryWriter w(buf);
  w.write_magic(0x12121212u, 1);
  BinaryReader r(buf);
  EXPECT_THROW(NextActionModel::load(r), SerializeError);
}

TEST(NextActionModel, StackedParameterCount) {
  Rng rng(11);
  ModelConfig config{.vocab = 10, .hidden = 8, .layers = 2, .dropout = 0.0f};
  NextActionModel model(config, rng);
  // Layer 0: 10*32 + 8*32 + 32; layer 1: 8*32 + 8*32 + 32; head: 8*10+10.
  EXPECT_EQ(model.parameter_count(),
            (10u * 32 + 8 * 32 + 32) + (8u * 32 + 8 * 32 + 32) + (8u * 10 + 10));
}

TEST(NextActionModel, StackedModelLearnsCycle) {
  Rng rng(12);
  ModelConfig config{.vocab = 5, .hidden = 12, .layers = 2, .dropout = 0.0f};
  NextActionModel model(config, rng);
  Adam adam(0.01f);
  const SequenceBatch batch = cycle_batch(5, 10, 5);
  for (int epoch = 0; epoch < 200; ++epoch) model.train_batch(batch, adam, rng);
  EXPECT_GT(model.evaluate(batch).accuracy(), 0.95);
}

TEST(NextActionModel, StackedStreamingMatchesBatched) {
  Rng rng(13);
  ModelConfig config{.vocab = 6, .hidden = 7, .layers = 3, .dropout = 0.0f};
  NextActionModel model(config, rng);
  const std::vector<int> session = {0, 3, 1, 5, 2, 4};
  SequenceBatch batch;
  for (std::size_t i = 0; i + 1 < session.size(); ++i) {
    batch.tokens.push_back({session[i]});
    batch.targets.push_back({session[i + 1]});
  }
  const auto batched = model.target_likelihoods(batch);
  const auto score = model.score_session(session);
  ASSERT_EQ(batched.size(), score.likelihoods.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_NEAR(batched[i], score.likelihoods[i], 1e-5);
  }
}

TEST(NextActionModel, StackedSaveLoadRoundTrip) {
  Rng rng(14);
  ModelConfig config{.vocab = 7, .hidden = 5, .layers = 2, .dropout = 0.3f};
  NextActionModel model(config, rng);
  std::stringstream buf;
  BinaryWriter w(buf);
  model.save(w);
  BinaryReader r(buf);
  NextActionModel loaded = NextActionModel::load(r);
  EXPECT_EQ(loaded.config().layers, 2u);
  const std::vector<int> session = {1, 6, 3, 0, 5};
  const auto a = model.score_session(session);
  const auto b = loaded.score_session(session);
  ASSERT_EQ(a.likelihoods.size(), b.likelihoods.size());
  for (std::size_t i = 0; i < a.likelihoods.size(); ++i) {
    EXPECT_EQ(a.likelihoods[i], b.likelihoods[i]);
  }
}

TEST(NextActionModel, EmbeddingModelLearnsCycle) {
  Rng rng(15);
  ModelConfig config{.vocab = 5, .hidden = 12, .embedding_dim = 4, .dropout = 0.0f};
  NextActionModel model(config, rng);
  Adam adam(0.01f);
  const SequenceBatch batch = cycle_batch(5, 10, 5);
  for (int epoch = 0; epoch < 200; ++epoch) model.train_batch(batch, adam, rng);
  EXPECT_GT(model.evaluate(batch).accuracy(), 0.95);
}

TEST(NextActionModel, EmbeddingParameterCount) {
  Rng rng(16);
  ModelConfig config{.vocab = 20, .hidden = 8, .embedding_dim = 4, .dropout = 0.0f};
  NextActionModel model(config, rng);
  // Embedding 20*4; LSTM (4 -> 8): 4*32 + 8*32 + 32; head 8*20 + 20.
  EXPECT_EQ(model.parameter_count(), 20u * 4 + (4u * 32 + 8 * 32 + 32) + (8u * 20 + 20));
}

TEST(NextActionModel, EmbeddingStreamingMatchesBatched) {
  Rng rng(17);
  ModelConfig config{.vocab = 6, .hidden = 7, .layers = 2, .embedding_dim = 3, .dropout = 0.0f};
  NextActionModel model(config, rng);
  const std::vector<int> session = {0, 3, 1, 5, 2, 4};
  SequenceBatch batch;
  for (std::size_t i = 0; i + 1 < session.size(); ++i) {
    batch.tokens.push_back({session[i]});
    batch.targets.push_back({session[i + 1]});
  }
  const auto batched = model.target_likelihoods(batch);
  const auto score = model.score_session(session);
  ASSERT_EQ(batched.size(), score.likelihoods.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_NEAR(batched[i], score.likelihoods[i], 1e-5);
  }
}

TEST(NextActionModel, EmbeddingSaveLoadRoundTrip) {
  Rng rng(18);
  ModelConfig config{.vocab = 9, .hidden = 5, .embedding_dim = 4, .dropout = 0.2f};
  NextActionModel model(config, rng);
  std::stringstream buf;
  BinaryWriter w(buf);
  model.save(w);
  BinaryReader r(buf);
  NextActionModel loaded = NextActionModel::load(r);
  EXPECT_EQ(loaded.config().embedding_dim, 4u);
  const std::vector<int> session = {1, 7, 3, 0, 8};
  const auto a = model.score_session(session);
  const auto b = loaded.score_session(session);
  ASSERT_EQ(a.likelihoods.size(), b.likelihoods.size());
  for (std::size_t i = 0; i < a.likelihoods.size(); ++i) {
    EXPECT_EQ(a.likelihoods[i], b.likelihoods[i]);
  }
}

bool bit_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// GRU, stacked and embedding models step layer by layer, one row at a
// time: a batch must equal one-row steps bit for bit, in every layer's
// state, with no multi-row kernel pass.
TEST(NextActionModel, StepBatchEqualsStepIntoOnLayerByLayerShapes) {
  const ModelConfig configs[] = {
      {.vocab = 11, .hidden = 6, .cell = CellKind::kGru, .dropout = 0.0f},
      {.vocab = 11, .hidden = 6, .layers = 2, .dropout = 0.0f},
      {.vocab = 11, .hidden = 6, .embedding_dim = 4, .dropout = 0.0f},
  };
  constexpr std::size_t kSessions = 5;
  constexpr std::size_t kSteps = 12;
  for (const ModelConfig& config : configs) {
    Rng rng(19);
    const NextActionModel model(config, rng);
    EXPECT_EQ(model.rows_per_pass(), 1u);
    std::vector<ModelState> bat(kSessions, model.make_state());
    std::vector<ModelState> row(kSessions, model.make_state());
    std::vector<std::vector<float>> bat_probs(kSessions);
    std::vector<float> row_probs;
    for (std::size_t t = 0; t < kSteps; ++t) {
      const std::size_t n = kSessions - t % kSessions;  // 5 rows down to 1
      std::vector<ModelState*> states(n);
      std::vector<std::vector<float>*> probs(n);
      std::vector<int> actions(n);
      for (std::size_t i = 0; i < n; ++i) {
        states[i] = &bat[i];
        probs[i] = &bat_probs[i];
        actions[i] = static_cast<int>(rng.uniform_index(config.vocab));
      }
      model.step_batch(states, actions, probs);
      for (std::size_t i = 0; i < n; ++i) {
        model.step_into(row[i], actions[i], row_probs);
        ASSERT_TRUE(bit_equal(row_probs, bat_probs[i]))
            << "layers=" << config.layers << " cell=" << cell_kind_name(config.cell)
            << " embedding=" << config.embedding_dim << " step " << t << " row " << i;
        for (std::size_t l = 0; l < config.layers; ++l) {
          ASSERT_TRUE(bit_equal(row[i].layers[l].h.flat(), bat[i].layers[l].h.flat()));
          ASSERT_TRUE(bit_equal(row[i].layers[l].c.flat(), bat[i].layers[l].c.flat()));
        }
      }
    }
  }
  // The paper shape sweeps as many rows as keep 4H gate floats a row
  // within 32 KiB.
  Rng rng(20);
  EXPECT_EQ(NextActionModel({.vocab = 11, .hidden = 256}, rng).rows_per_pass(), 8u);
  EXPECT_EQ(NextActionModel({.vocab = 11, .hidden = 16}, rng).rows_per_pass(), 128u);
}

class ModelDropoutSweep : public ::testing::TestWithParam<float> {};

TEST_P(ModelDropoutSweep, TrainsWithoutNumericalIssues) {
  Rng rng(42);
  ModelConfig config{.vocab = 6, .hidden = 8, .dropout = GetParam()};
  NextActionModel model(config, rng);
  Adam adam(0.005f);
  const SequenceBatch batch = cycle_batch(6, 6, 3);
  for (int i = 0; i < 30; ++i) {
    const auto stats = model.train_batch(batch, adam, rng);
    ASSERT_TRUE(std::isfinite(stats.loss));
    ASSERT_TRUE(std::isfinite(stats.grad_norm));
  }
}

INSTANTIATE_TEST_SUITE_P(DropoutRates, ModelDropoutSweep,
                         ::testing::Values(0.0f, 0.2f, 0.4f, 0.6f));

}  // namespace
}  // namespace misuse::nn
