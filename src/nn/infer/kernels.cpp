#include "nn/infer/kernels.hpp"

#include <cassert>
#include <span>

#include "nn/gate_math.hpp"
#include "nn/lstm.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn::infer {

namespace {

// --- Scalar kernel table ---------------------------------------------------
//
// Bit-identity contract: the scalar float kernels must produce exactly
// the bits of the layer-by-layer forward (compute_gates / Dense::infer in
// nn/). That requires more than the same math — it requires the same
// LOOP SHAPE, because the compiler contracts a j-inner accumulation
// (`row[j] += hp * wrow[j]`, what gemm_rows compiles to) into per-element
// FMAs, while a transposed dot reduction (`acc += h[p] * wt[p]`) keeps
// mul and add as separate roundings. So the float kernels below replay
// gemm_rows' exact iteration order on the layers' weight layouts
// (wh: H x 4H, head_w: H x V): seed with bias (+ the token's wx row),
// then per p ascending skip h[p] == 0.0f and accumulate h[p] * row into
// the output row. Identical expression shape on both sides means the
// compiler makes the same contraction choice for both, whatever the
// flags. The nonlinearities/cell update are the same inline helpers
// (nn/gate_math.hpp) the layer compiles.
//
// Batching: p runs outer, the batch row in the middle, j inner. Every
// output element still sees its own row's seed and then h[i][p] * w(p, j)
// for p ascending (with that row's own zero skip), so row i's bits do not
// depend on the batch it rides in; only the weight row w(p, ·) is shared,
// read once per batch while it is hot in L1.

void scalar_gates_batch(const LstmWeights& w, const float* const* h, const int* tokens,
                        float* const* gates, std::size_t n) {
  const std::size_t hidden = w.hidden;
  const std::size_t g4 = 4 * hidden;
  for (std::size_t i = 0; i < n; ++i) {
    float* g = gates[i];
    for (std::size_t j = 0; j < g4; ++j) g[j] = w.bias[j];
    if (tokens[i] != kPadToken) {
      assert(tokens[i] >= 0 && static_cast<std::size_t>(tokens[i]) < w.vocab);
      const float* wxrow = w.wx + static_cast<std::size_t>(tokens[i]) * g4;
      for (std::size_t j = 0; j < g4; ++j) g[j] += wxrow[j];
    }
  }
  for (std::size_t p = 0; p < hidden; ++p) {
    const float* wrow = w.wh + p * g4;
    for (std::size_t i = 0; i < n; ++i) {
      const float hp = h[i][p];
      if (hp == 0.0f) continue;  // matches gemm_rows' zero-skip
      float* g = gates[i];
      for (std::size_t j = 0; j < g4; ++j) g[j] += hp * wrow[j];
    }
  }
}

void scalar_activate_update(float* gates, std::size_t hidden, float* c, float* h) {
  lstm_activate_gates(gates, hidden);
  lstm_cell_update(gates, hidden, c, h);
}

void scalar_head_batch(const LstmWeights& w, const float* const* h, float* const* logits,
                       std::size_t n) {
  const std::size_t hidden = w.hidden;
  const std::size_t v = w.head_out;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < v; ++j) logits[i][j] = 0.0f;  // Dense::infer gemm has beta == 0
  }
  for (std::size_t p = 0; p < hidden; ++p) {
    const float* wrow = w.head_w + p * v;
    for (std::size_t i = 0; i < n; ++i) {
      const float hp = h[i][p];
      if (hp == 0.0f) continue;
      float* row = logits[i];
      for (std::size_t j = 0; j < v; ++j) row[j] += hp * wrow[j];
    }
  }
  // Bias lands AFTER the full accumulation, as add_row_broadcast does.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < v; ++j) logits[i][j] += w.head_b[j];
  }
}

void scalar_softmax(const float* logits, std::size_t n, float* probs) {
  (void)softmax_row(std::span<const float>(logits, n), std::span<float>(probs, n));
}

}  // namespace

const Kernels* scalar_kernels() {
  static const Kernels kernels = {
      &scalar_gates_batch, &scalar_activate_update, &scalar_head_batch, &scalar_softmax,
  };
  return &kernels;
}

}  // namespace misuse::nn::infer
