#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace misuse::nn {
namespace {

std::vector<std::vector<int>> make_tokens(std::initializer_list<std::initializer_list<int>> rows) {
  std::vector<std::vector<int>> out;
  for (const auto& r : rows) out.emplace_back(r);
  return out;
}

TEST(Lstm, ForwardShapes) {
  Rng rng(1);
  Lstm lstm(5, 3, rng);
  lstm.forward(make_tokens({{0, 1}, {2, 3}, {4, 0}}));
  EXPECT_EQ(lstm.steps(), 3u);
  EXPECT_EQ(lstm.batch(), 2u);
  EXPECT_EQ(lstm.hidden_at(0).rows(), 2u);
  EXPECT_EQ(lstm.hidden_at(0).cols(), 3u);
}

TEST(Lstm, DeterministicForward) {
  Rng rng1(7), rng2(7);
  Lstm a(4, 6, rng1), b(4, 6, rng2);
  const auto tokens = make_tokens({{1}, {2}, {3}});
  a.forward(tokens);
  b.forward(tokens);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(a.hidden_at(t) == b.hidden_at(t));
  }
}

TEST(Lstm, HiddenOutputsBounded) {
  Rng rng(2);
  Lstm lstm(8, 16, rng);
  std::vector<std::vector<int>> tokens(50, std::vector<int>{3});
  lstm.forward(tokens);
  // h = o * tanh(c), both factors in (-1, 1) => |h| < 1.
  for (std::size_t t = 0; t < lstm.steps(); ++t) {
    for (float v : lstm.hidden_at(t).flat()) {
      ASSERT_LT(std::abs(v), 1.0f);
      ASSERT_TRUE(std::isfinite(v));
    }
  }
}

TEST(Lstm, PadTokenMatchesZeroInputContribution) {
  // A pad step must only apply bias + recurrent weights. Verify by
  // comparing a fresh LSTM fed a pad vs a real token: outputs differ.
  Rng rng(3);
  Lstm lstm(4, 5, rng);
  lstm.forward(make_tokens({{kPadToken}}));
  const Matrix h_pad = lstm.hidden_at(0);
  lstm.forward(make_tokens({{2}}));
  const Matrix h_tok = lstm.hidden_at(0);
  bool differs = false;
  for (std::size_t i = 0; i < h_pad.size(); ++i) {
    differs |= (h_pad.flat()[i] != h_tok.flat()[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Lstm, LeadingPadsDelayButDoNotBlockDynamics) {
  // With left padding the state still evolves through biases; verify the
  // padded prefix produces identical states across different batch rows
  // (pads are indistinguishable).
  Rng rng(4);
  Lstm lstm(6, 4, rng);
  lstm.forward(make_tokens({{kPadToken, kPadToken}, {kPadToken, kPadToken}, {1, 5}}));
  const Matrix& h1 = lstm.hidden_at(1);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(h1(0, j), h1(1, j));
  const Matrix& h2 = lstm.hidden_at(2);
  bool differs = false;
  for (std::size_t j = 0; j < 4; ++j) differs |= (h2(0, j) != h2(1, j));
  EXPECT_TRUE(differs);
}

TEST(Lstm, StreamingStepMatchesBatchedForward) {
  Rng rng(5);
  Lstm lstm(7, 9, rng);
  const std::vector<int> sequence = {1, 4, 2, 6, 0, 3};

  std::vector<std::vector<int>> tokens;
  for (int a : sequence) tokens.push_back({a});
  lstm.forward(tokens);

  LstmState state(1, 9);
  for (std::size_t t = 0; t < sequence.size(); ++t) {
    lstm.step({sequence[t]}, state);
    for (std::size_t j = 0; j < 9; ++j) {
      ASSERT_NEAR(state.h(0, j), lstm.hidden_at(t)(0, j), 1e-6f) << "t=" << t << " j=" << j;
    }
  }
}

TEST(Lstm, BatchRowsAreIndependent) {
  // Each batch row must evolve independently: feeding (s1, s2) batched
  // equals feeding each alone.
  Rng rng(6);
  Lstm lstm(5, 4, rng);
  const auto batched = make_tokens({{1, 3}, {2, 0}, {4, 4}});
  lstm.forward(batched);
  Matrix h_last = lstm.hidden_at(2);

  lstm.forward(make_tokens({{1}, {2}, {4}}));
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(lstm.hidden_at(2)(0, j), h_last(0, j), 1e-6f);
  lstm.forward(make_tokens({{3}, {0}, {4}}));
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(lstm.hidden_at(2)(0, j), h_last(1, j), 1e-6f);
}

TEST(Lstm, BackwardProducesFiniteGrads) {
  Rng rng(8);
  Lstm lstm(6, 5, rng);
  const auto tokens = make_tokens({{0, 1}, {2, 3}, {4, 5}});
  lstm.forward(tokens);
  std::vector<Matrix> d_hidden(3, Matrix(2, 5, 0.1f));
  zero_grads(lstm.params());
  lstm.backward(d_hidden);
  for (auto* p : lstm.params()) {
    float abs_sum = 0.0f;
    for (float g : p->grad.flat()) {
      ASSERT_TRUE(std::isfinite(g));
      abs_sum += std::abs(g);
    }
    EXPECT_GT(abs_sum, 0.0f) << p->name << " received no gradient";
  }
}

TEST(Lstm, PadStepsReceiveNoInputWeightGradient) {
  Rng rng(9);
  Lstm lstm(4, 3, rng);
  lstm.forward(make_tokens({{kPadToken}, {kPadToken}}));
  std::vector<Matrix> d_hidden(2, Matrix(1, 3, 1.0f));
  zero_grads(lstm.params());
  lstm.backward(d_hidden);
  // Wx rows can only be touched by non-pad tokens.
  for (float g : lstm.params()[0]->grad.flat()) EXPECT_EQ(g, 0.0f);
  // But recurrent weights and bias still learn.
  float b_sum = 0.0f;
  for (float g : lstm.params()[2]->grad.flat()) b_sum += std::abs(g);
  EXPECT_GT(b_sum, 0.0f);
}

TEST(Lstm, ForgetGateBiasInitializedToOne) {
  Rng rng(10);
  Lstm lstm(4, 4, rng);
  const auto* bias = lstm.params()[2];
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(bias->value(0, j), 0.0f);          // input gate
    EXPECT_EQ(bias->value(0, 4 + j), 1.0f);      // forget gate
    EXPECT_EQ(bias->value(0, 8 + j), 0.0f);      // candidate
    EXPECT_EQ(bias->value(0, 12 + j), 0.0f);     // output gate
  }
}

TEST(Lstm, SaveLoadPreservesBehavior) {
  Rng rng(11);
  Lstm lstm(6, 7, rng);
  std::stringstream buf;
  BinaryWriter w(buf);
  lstm.save(w);
  BinaryReader r(buf);
  Lstm loaded = Lstm::load(r);
  // Scoring needs no gradients; training allocates them in zero_grad().
  for (const auto* p : loaded.params()) EXPECT_EQ(p->grad.size(), 0u) << p->name;

  const auto tokens = make_tokens({{2}, {5}, {1}});
  lstm.forward(tokens);
  loaded.forward(tokens);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(lstm.hidden_at(t) == loaded.hidden_at(t)) << "t=" << t;
  }
}

class LstmSizeSweep : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(LstmSizeSweep, ForwardBackwardRunCleanly) {
  const auto [vocab, hidden] = GetParam();
  Rng rng(vocab * 31 + hidden);
  Lstm lstm(vocab, hidden, rng);
  std::vector<std::vector<int>> tokens(4);
  for (auto& row : tokens) {
    row = {static_cast<int>(rng.uniform_index(vocab)), static_cast<int>(rng.uniform_index(vocab))};
  }
  lstm.forward(tokens);
  std::vector<Matrix> d_hidden(4, Matrix(2, hidden, 0.01f));
  zero_grads(lstm.params());
  lstm.backward(d_hidden);
  for (auto* p : lstm.params()) {
    for (float g : p->grad.flat()) ASSERT_TRUE(std::isfinite(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LstmSizeSweep,
                         ::testing::Values(std::make_pair(2u, 1u), std::make_pair(3u, 8u),
                                           std::make_pair(16u, 4u), std::make_pair(64u, 32u)));

}  // namespace
}  // namespace misuse::nn
