// Kernel table of the streaming forward (NextActionModel::step_batch on
// the paper shape: one token-input LSTM layer and a dense softmax head).
//
// Both matrix-vector products come as batch kernels only: row i of a
// batch reads h[i] and writes its own output row, and a one-row step is
// the n = 1 case. Each kernel gives every output element the exact
// operation sequence it would get alone, so a batch of n rows equals n
// one-row calls bit for bit, on either table, while each weight row is
// read once per batch instead of once per row.
//
// The scalar table (nn/infer/kernels.cpp) reproduces the layer-by-layer
// forward (nn/lstm.cpp + nn/dense.cpp + softmax_row) expression for
// expression — the determinism contract (WAL replay, hot swap) rides on
// this.
//
// The avx2 table (nn/infer/engine_avx2.cpp, compiled with -mavx2 -mfma)
// is ULP-close to scalar, not bit-identical (vectorized exp
// approximation, FMA contraction); within it, every output element is
// the same FMA chain at any batch size (tests/test_infer.cpp).
#pragma once

#include <cstddef>

namespace misuse::nn::infer {

/// The model's weights as the kernels read them, in the layer layouts
/// (tensor/matrix.hpp row-major). Non-owning: the model builds one at
/// call time from its own matrices.
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

struct Kernels {
  /// gates[i][0..4H) = bias + wx[tokens[i]] (unless kPadToken) + Wh^T h[i].
  void (*gates_batch)(const LstmWeights& w, const float* const* h, const int* tokens,
                      float* const* gates, std::size_t n);
  /// In-place gate nonlinearities + cell update (c, h advance) of one row.
  void (*activate_update)(float* gates, std::size_t hidden, float* c, float* h);
  /// logits[i][0..V) = head_w h[i] + head_b.
  void (*head_batch)(const LstmWeights& w, const float* const* h, float* const* logits,
                     std::size_t n);
  /// Stable softmax logits -> probs (may alias) of one row.
  void (*softmax)(const float* logits, std::size_t n, float* probs);
};

const Kernels* scalar_kernels();
/// nullptr when the tree is built without MISUSE_SIMD.
const Kernels* avx2_kernels();
/// The table effective_infer_mode() names (nn/infer/dispatch.hpp).
const Kernels* selected_kernels();

}  // namespace misuse::nn::infer
