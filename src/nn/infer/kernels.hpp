// Internal kernel table for the inference engine.
//
// The scalar table reproduces the reference forward (nn/lstm.cpp +
// nn/dense.cpp + softmax_row) expression-for-expression and leaves the
// *_batch entries null, so batched scalar scoring loops the one-row
// kernels and stays bit-identical to one-at-a-time scoring — the
// determinism contract (WAL replay, hot swap) rides on this.
//
// The avx2 table (nn/infer/engine_avx2.cpp, compiled with -mavx2 -mfma)
// is ULP-close to scalar, not bit-identical (vectorized exp
// approximation, FMA contraction). Its one-row and fused *_batch kernels
// give every output element the same FMA sequence, so within the avx2
// table a fused batch equals one-row stepping bit for bit
// (tests/test_infer.cpp).
#pragma once

#include <cstddef>

namespace misuse::nn::infer {

struct LstmWeights;

struct Kernels {
  /// gates[0..4H) = bias + wx[token] (token != kPadToken) + Wh^T h.
  void (*gates)(const LstmWeights& w, const float* h, int token, float* gates);
  /// In-place gate nonlinearities + cell update (c, h advance).
  void (*activate_update)(float* gates, std::size_t hidden, float* c, float* h);
  /// logits[0..V) = head_w h + head_b.
  void (*head)(const LstmWeights& w, const float* h, float* logits);
  /// Stable softmax logits -> probs (may alias).
  void (*softmax)(const float* logits, std::size_t n, float* probs);
  /// Fused batch variants; nullptr = the engine loops the one-row kernel
  /// (the scalar table, which keeps batch == sequential bitwise).
  void (*gates_batch)(const LstmWeights& w, float* const* h, const int* tokens,
                      float* const* gates, std::size_t n);
  void (*head_batch)(const LstmWeights& w, float* const* h, float* const* logits, std::size_t n);
};

const Kernels* scalar_kernels();
/// nullptr when the tree is built without MISUSE_SIMD.
const Kernels* avx2_kernels();

}  // namespace misuse::nn::infer
