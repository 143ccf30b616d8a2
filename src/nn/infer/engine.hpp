// Inference-only LSTM forward for the paper architecture (one token-input
// LSTM layer + dense softmax head — the shape every trained detector
// cluster uses). The engine reads the trained model's own row-major
// matrices in place: it keeps sizes and pointers, never a copy, so the
// model must outlive it (MisuseDetector owns both and rebuilds its
// engines whenever its models change). Per-step scoring runs
// allocation-free through the kernel table selected by
// nn/infer/dispatch.hpp.
//
// Every advance is a batch: step() is step_batch() of one row, and a
// pass over n sessions of one model reads each weight row once for all n
// (the gate and head products are the kernels' batch entries,
// nn/infer/kernels.hpp).
//
// Contract: with the scalar kernels, step()/step_batch() are bit-identical
// to NextActionModel::step_into on the same weights and state, at any
// batch size — proven by tests/test_infer.cpp — so every determinism
// guarantee (WAL replay, hot swap, server-vs-offline) survives the fast
// path. The avx2 kernels are ULP-bounded instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/infer/dispatch.hpp"

namespace misuse::nn {
class NextActionModel;
}

namespace misuse::nn::infer {

/// The model's weights as the kernels read them, in the reference
/// layouts (tensor/matrix.hpp row-major). Non-owning.
struct LstmWeights {
  std::size_t vocab = 0;     // token vocabulary (wx rows)
  std::size_t hidden = 0;    // H
  std::size_t head_out = 0;  // V — head output width (== vocab here)
  const float* wx = nullptr;      // vocab x 4H
  const float* wh = nullptr;      // H x 4H
  const float* bias = nullptr;    // 4H
  const float* head_w = nullptr;  // H x V
  const float* head_b = nullptr;  // V
};

/// Streaming state of one session on the engine (h and c, length H).
struct EngineState {
  std::vector<float> h;
  std::vector<float> c;
  void reset() {
    std::fill(h.begin(), h.end(), 0.0f);
    std::fill(c.begin(), c.end(), 0.0f);
  }
};

/// Reusable per-caller scratch: one gate row per batch row, plus the
/// batch's row pointers into states, the gates buffer and the callers'
/// probability vectors.
struct EngineScratch {
  std::vector<float> gates;
  std::vector<const float*> h_rows;
  std::vector<float*> gate_rows;
  std::vector<float*> logit_rows;
};

class LstmInferEngine {
 public:
  /// Points an engine at the model's weights; returns null when the
  /// model is outside the supported shape (stacked layers, embeddings,
  /// or a non-LSTM cell step through NextActionModel instead).
  static std::unique_ptr<LstmInferEngine> build(const NextActionModel& model);

  EngineState make_state() const;

  /// Advances one session by one action; writes the softmax'd
  /// next-action distribution into probs (resized to vocab).
  void step(EngineState& state, int action, std::vector<float>& probs,
            EngineScratch& scratch) const;

  /// Batched variant: states[i] advances on actions[i] into *probs[i].
  /// Each row's bits are independent of the batch it rides in, so the
  /// result is bit-identical to n calls of step() in order, on every
  /// kernel; the weights are streamed once per pass of up to
  /// rows_per_pass() rows rather than once per row.
  void step_batch(std::span<EngineState* const> states, std::span<const int> actions,
                  std::span<std::vector<float>* const> probs, EngineScratch& scratch) const;

  /// Rows one kernel pass sweeps: as many as keep the pass's gate scratch
  /// (4H floats a row) within 32 KiB, so it stays in L1d while each weight
  /// row streams past — 8 rows at H = 256, 128 at H = 16.
  std::size_t rows_per_pass() const {
    return std::max<std::size_t>(1, 32768 / (16 * w_.hidden));
  }

  /// Head + softmax only, from the state's current h: the distribution
  /// the last step() / step_batch() advance wrote, recomputed bit for
  /// bit (the head's one-row case).
  void finish_probs(const EngineState& state, std::vector<float>& probs) const;

 private:
  explicit LstmInferEngine(const LstmWeights& w) : w_(w) {}

  /// One kernel pass of step_batch over at most rows_per_pass() rows.
  void step_pass(std::span<EngineState* const> states, std::span<const int> actions,
                 std::span<std::vector<float>* const> probs, EngineScratch& scratch) const;

  LstmWeights w_;
};

}  // namespace misuse::nn::infer
