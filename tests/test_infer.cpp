// Differential test harness for the streaming forward's kernel tables
// (NextActionModel::step_batch / step_into on the paper shape, through
// nn/infer/).
//
// The contracts, in decreasing strictness:
//   * scalar kernels — BIT-identical to the layer-by-layer forward this
//     file builds from the model's own layers (Lstm::step, Dense::infer,
//     softmax_row), one-row and batched alike: the scalar table's gate
//     and head products are batch kernels that give every output element
//     its one-row operation sequence, so a row's bits do not depend on
//     the batch it rides in. Every determinism guarantee in the repo (WAL
//     replay, hot swap, server-vs-offline) leans on this.
//   * avx2 kernels — ULP-bounded against scalar per step (vectorized
//     exp approximation, FMA contraction), and batches BIT-identical to
//     avx2 one-row steps (every output element is the same FMA chain).
// Both are checked across shapes whose 4H and V are not multiples of the
// 8-lane vector or the 64-column pass, and over batches of 13 rows down
// to 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/infer/dispatch.hpp"
#include "nn/lstm.hpp"
#include "nn/next_action_model.hpp"
#include "nn/parameter.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace misuse::nn::infer {
namespace {

// The kernel mode is a process global; every test restores it.
struct ModeGuard {
  InferMode mode = infer_mode();
  ~ModeGuard() { set_infer_mode(mode); }
};

std::vector<int> random_actions(std::size_t n, std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> actions(n);
  for (auto& a : actions) a = static_cast<int>(rng.uniform_index(vocab));
  return actions;
}

NextActionModel make_model(std::size_t vocab, std::size_t hidden, std::uint64_t seed) {
  ModelConfig config;
  config.vocab = vocab;
  config.hidden = hidden;
  Rng rng(seed);
  NextActionModel model(config, rng);
  // A fresh model's biases start at zero or constant; perturb every
  // parameter so where a bias enters the accumulation shows in the bits.
  for (Parameter* param : model.params()) {
    for (float& v : param->value.flat()) v += static_cast<float>(rng.uniform(-0.1, 0.1));
  }
  return model;
}

bool bit_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The layer-by-layer forward of one stream: the model's LSTM layer steps
/// on the action, then its head and softmax_row. The scalar kernels must
/// reproduce it bit for bit.
class Reference {
 public:
  explicit Reference(const NextActionModel& model)
      : model_(model), state_(1, model.config().hidden) {}

  void step(int action, std::vector<float>& probs) {
    model_.layer(0).step({action}, state_);
    model_.head().infer(state_.h, logits_);
    probs.resize(logits_.cols());
    (void)softmax_row(logits_.row(0), probs);
  }
  void reset() { state_.reset(); }
  const LstmState& state() const { return state_; }

 private:
  const NextActionModel& model_;
  LstmState state_;
  Matrix logits_;
};

std::span<const float> h_of(const ModelState& state) {
  return state.layers.at(0).h.flat();
}
std::span<const float> c_of(const ModelState& state) {
  return state.layers.at(0).c.flat();
}

// Lexicographically ordered integer image of a float: distances in this
// space count representable values between two floats (ULPs).
std::int64_t float_lex(float x) {
  const auto i = std::bit_cast<std::int32_t>(x);
  return i >= 0 ? static_cast<std::int64_t>(i)
                : static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min()) - i;
}

std::int64_t ulp_distance(float a, float b) {
  return std::llabs(float_lex(a) - float_lex(b));
}

// Max per-element ULP divergence tolerated between the avx2 kernels and
// scalar for one step from an identical state. Headroom over observed
// maxima (tens of ULPs) without masking real kernel bugs, which show up
// orders of magnitude larger.
constexpr std::int64_t kAvx2UlpBound = 2048;

// (vocab, hidden) pairs whose gate width 4H and head width V cover every
// column path of the avx2 kernels: whole 64-column passes, a tail of each
// length from one to eight vectors, last vectors from one lane to full,
// and widths below one vector (hidden 5 gives 4H = 20; vocab 7 and 65
// leave 7 and 1 columns; vocab 60 is eight vectors, the last half full).
// (300, 256) is the paper's shape.
struct Shape {
  std::size_t vocab, hidden;
  std::uint64_t seed;
};
constexpr Shape kShapes[] = {
    {7, 5, 41}, {65, 20, 42}, {30, 8, 44}, {33, 9, 45},
    {60, 14, 46}, {50, 96, 29}, {44, 80, 31}, {300, 256, 43},
};

// --- scalar: bit-identity with the layer-by-layer forward ------------

TEST(InferScalar, BitIdenticalToReferenceAcrossShapesAndSeeds) {
  ModeGuard guard;
  const struct {
    std::size_t vocab, hidden;
    std::uint64_t seed;
  } cases[] = {
      {13, 16, 1}, {29, 32, 2}, {50, 64, 3}, {61, 24, 4}, {7, 5, 5}, {40, 128, 6},
  };
  for (const auto& c : cases) {
    const NextActionModel model = make_model(c.vocab, c.hidden, c.seed);
    const auto actions = random_actions(120, c.vocab, c.seed * 977);

    set_infer_mode(InferMode::kScalar);
    Reference ref(model);
    ModelState state = model.make_state();
    std::vector<float> ref_probs, probs;
    for (const int a : actions) {
      ref.step(a, ref_probs);
      model.step_into(state, a, probs);
      ASSERT_TRUE(bit_equal(ref_probs, probs))
          << "vocab=" << c.vocab << " hidden=" << c.hidden << " seed=" << c.seed;
    }
  }
}

TEST(InferScalar, AutoModeResolvesToBitIdenticalKernels) {
  ModeGuard guard;
  const NextActionModel model = make_model(23, 48, 11);
  const auto actions = random_actions(60, 23, 123);

  set_infer_mode(InferMode::kAuto);
  Reference ref(model);
  ModelState state = model.make_state();
  std::vector<float> ref_probs, probs;
  for (const int a : actions) {
    ref.step(a, ref_probs);
    model.step_into(state, a, probs);
    ASSERT_TRUE(bit_equal(ref_probs, probs));
  }
}

TEST(InferScalar, BatchBitIdenticalToSequential) {
  ModeGuard guard;
  set_infer_mode(InferMode::kScalar);
  constexpr std::size_t kSessions = 13;
  constexpr std::size_t kSteps = 30;
  for (const Shape& shape : kShapes) {
    const NextActionModel model = make_model(shape.vocab, shape.hidden, shape.seed);
    std::vector<std::vector<int>> streams;
    for (std::size_t i = 0; i < kSessions; ++i) {
      streams.push_back(random_actions(kSteps, shape.vocab, 700 + i));
    }
    // Three trajectories per session: step_batch, one-row step_into, and
    // the layer-by-layer forward.
    std::vector<ModelState> bat(kSessions, model.make_state());
    std::vector<ModelState> row(kSessions, model.make_state());
    std::vector<Reference> ref(kSessions, Reference(model));
    std::vector<float> row_probs, ref_probs;
    std::vector<std::vector<float>> bat_probs(kSessions);
    for (std::size_t t = 0; t < kSteps; ++t) {
      // Sessions restart on a staggered schedule, so most batches mix
      // rows at the zero state (every h[p] skipped) with rows
      // mid-trajectory.
      for (std::size_t i = 0; i < kSessions; ++i) {
        if ((t + i) % 7 != 0) continue;
        bat[i].reset();
        row[i].reset();
        ref[i].reset();
      }
      const std::size_t n = kSessions - t % kSessions;  // 13 rows down to 1
      std::vector<ModelState*> state_ptrs(n);
      std::vector<std::vector<float>*> prob_ptrs(n);
      std::vector<int> actions(n);
      for (std::size_t i = 0; i < n; ++i) {
        actions[i] = streams[i][t];
        state_ptrs[i] = &bat[i];
        prob_ptrs[i] = &bat_probs[i];
      }
      model.step_batch(state_ptrs, actions, prob_ptrs);
      for (std::size_t i = 0; i < n; ++i) {
        model.step_into(row[i], actions[i], row_probs);
        ref[i].step(actions[i], ref_probs);
        ASSERT_TRUE(bit_equal(row_probs, bat_probs[i]))
            << "vocab=" << shape.vocab << " hidden=" << shape.hidden << " step " << t
            << " row " << i << " of " << n;
        ASSERT_TRUE(bit_equal(h_of(row[i]), h_of(bat[i])));
        ASSERT_TRUE(bit_equal(c_of(row[i]), c_of(bat[i])));
        ASSERT_TRUE(bit_equal(ref_probs, bat_probs[i]))
            << "vocab=" << shape.vocab << " hidden=" << shape.hidden << " step " << t
            << " row " << i << " of " << n;
        ASSERT_TRUE(bit_equal(ref[i].state().h.flat(), h_of(bat[i])));
        ASSERT_TRUE(bit_equal(ref[i].state().c.flat(), c_of(bat[i])));
      }
    }
  }
}

// --- avx2: ULP envelope against scalar, batch == one-row ----------------

TEST(InferAvx2, OneRowStepWithinUlpOfScalar) {
  if (!avx2_supported()) GTEST_SKIP() << "avx2 kernels unavailable on this host";
  ModeGuard guard;
  for (const Shape& shape : kShapes) {
    const NextActionModel model = make_model(shape.vocab, shape.hidden, shape.seed);
    const auto actions = random_actions(60, shape.vocab, shape.seed * 101);

    // Walk the trajectory under scalar; at each step, run one avx2 step
    // from the identical pre-step state so only per-step kernel error is
    // measured, not accumulated trajectory divergence.
    ModelState state = model.make_state();
    std::vector<float> scalar_probs, avx2_probs;
    std::int64_t worst = 0;
    for (const int a : actions) {
      ModelState snapshot = state;
      set_infer_mode(InferMode::kScalar);
      model.step_into(state, a, scalar_probs);
      set_infer_mode(InferMode::kAvx2);
      model.step_into(snapshot, a, avx2_probs);
      ASSERT_EQ(scalar_probs.size(), avx2_probs.size());
      for (std::size_t j = 0; j < scalar_probs.size(); ++j) {
        worst = std::max(worst, ulp_distance(scalar_probs[j], avx2_probs[j]));
      }
      ASSERT_LE(worst, kAvx2UlpBound) << "vocab=" << shape.vocab << " hidden=" << shape.hidden;
    }
  }
}

TEST(InferAvx2, FusedBatchWithinUlpOfScalar) {
  if (!avx2_supported()) GTEST_SKIP() << "avx2 kernels unavailable on this host";
  ModeGuard guard;
  // 13 sessions: two full 6-session tiles plus a single-row remainder;
  // shrinking batches below walk the 4- and 2-session tiles and the
  // one-row pass too.
  constexpr std::size_t kSessions = 13;
  constexpr std::size_t kSteps = 30;
  for (const Shape& shape : kShapes) {
    const NextActionModel model = make_model(shape.vocab, shape.hidden, shape.seed);
    std::vector<std::vector<int>> streams;
    for (std::size_t i = 0; i < kSessions; ++i) {
      streams.push_back(random_actions(kSteps, shape.vocab, 900 + i));
    }

    std::vector<ModelState> scalar_states(kSessions, model.make_state());
    std::vector<float> scalar_probs, row_probs;
    std::vector<std::vector<float>> batch_probs(kSessions);
    std::int64_t worst = 0;
    for (std::size_t t = 0; t < kSteps; ++t) {
      const std::size_t n = kSessions - t % kSessions;  // 13 rows down to 1
      // Fresh copies of the scalar trajectory states for both avx2 paths.
      std::vector<ModelState> batch_states(scalar_states.begin(), scalar_states.begin() + n);
      std::vector<ModelState> row_states(batch_states);
      std::vector<ModelState*> state_ptrs(n);
      std::vector<std::vector<float>*> prob_ptrs(n);
      std::vector<int> actions(n);
      for (std::size_t i = 0; i < n; ++i) {
        actions[i] = streams[i][t];
        state_ptrs[i] = &batch_states[i];
        prob_ptrs[i] = &batch_probs[i];
      }
      set_infer_mode(InferMode::kAvx2);
      model.step_batch(state_ptrs, actions, prob_ptrs);
      for (std::size_t i = 0; i < n; ++i) {
        model.step_into(row_states[i], actions[i], row_probs);
        ASSERT_TRUE(bit_equal(row_probs, batch_probs[i]))
            << "vocab=" << shape.vocab << " hidden=" << shape.hidden << " step " << t
            << " session " << i;
        ASSERT_TRUE(bit_equal(h_of(row_states[i]), h_of(batch_states[i])));
        ASSERT_TRUE(bit_equal(c_of(row_states[i]), c_of(batch_states[i])));
      }
      set_infer_mode(InferMode::kScalar);
      for (std::size_t i = 0; i < kSessions; ++i) {
        model.step_into(scalar_states[i], streams[i][t], scalar_probs);
        if (i >= n) continue;
        for (std::size_t j = 0; j < scalar_probs.size(); ++j) {
          worst = std::max(worst, ulp_distance(scalar_probs[j], batch_probs[i][j]));
        }
        ASSERT_LE(worst, kAvx2UlpBound) << "step " << t << " session " << i;
      }
    }
  }
}

}  // namespace
}  // namespace misuse::nn::infer
