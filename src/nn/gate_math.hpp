// Shared LSTM gate nonlinearities and cell update, inlined into both the
// training-grade cell (nn/lstm.cpp) and the streaming forward's scalar
// kernel (nn/infer/kernels.cpp).
//
// The repo's headline guarantee is bit-identical determinism (WAL
// replay, hot swap, server-vs-offline equivalence), so the scalar
// kernels must reproduce the layer-by-layer forward *exactly* — not
// just to the same formula, but to the same floating-point expression
// tree. Expressions like `f * c + i * g` are contraction-ambiguous (the
// compiler may fuse either multiply into an FMA); routing every consumer
// through these helpers guarantees both paths compile the identical
// expression and therefore round identically.
#pragma once

#include <cmath>
#include <cstddef>

namespace misuse::nn {

/// Logistic sigmoid, exactly as the reference gate activation computes it.
inline float gate_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// In-place activation of one fused gate row g[0..4H): sigmoid on the
/// input/forget block, tanh on the candidate block, sigmoid on the
/// output block (gate layout [i | f | g | o], see nn/lstm.hpp).
inline void lstm_activate_gates(float* g, std::size_t hidden) {
  for (std::size_t j = 0; j < 2 * hidden; ++j) g[j] = gate_sigmoid(g[j]);
  for (std::size_t j = 2 * hidden; j < 3 * hidden; ++j) g[j] = std::tanh(g[j]);
  for (std::size_t j = 3 * hidden; j < 4 * hidden; ++j) g[j] = gate_sigmoid(g[j]);
}

/// Streaming cell update from one activated gate row: c = f*c + i*g,
/// h = o * tanh(c).
inline void lstm_cell_update(const float* g, std::size_t hidden, float* c, float* h) {
  for (std::size_t j = 0; j < hidden; ++j) {
    const float i_g = g[j];
    const float f_g = g[hidden + j];
    const float g_g = g[2 * hidden + j];
    const float o_g = g[3 * hidden + j];
    c[j] = f_g * c[j] + i_g * g_g;
    h[j] = o_g * std::tanh(c[j]);
  }
}

}  // namespace misuse::nn
