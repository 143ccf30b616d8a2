#include "nn/infer/engine.hpp"

#include <cassert>

#include "nn/dense.hpp"
#include "nn/gate_math.hpp"
#include "nn/infer/kernels.hpp"
#include "nn/lstm.hpp"
#include "nn/next_action_model.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn::infer {

namespace {

// --- Scalar kernel table ---------------------------------------------------
//
// Bit-identity contract: the scalar float kernels must produce exactly
// the bits of the reference forward (compute_gates / Dense::infer in
// nn/). That requires more than the same math — it requires the same
// LOOP SHAPE, because the compiler contracts a j-inner accumulation
// (`row[j] += hp * wrow[j]`, what gemm_rows compiles to) into per-element
// FMAs, while a transposed dot reduction (`acc += h[p] * wt[p]`) keeps
// mul and add as separate roundings. So the float kernels below replay
// gemm_rows' exact iteration order on the REFERENCE weight layouts
// (wh: H x 4H, head_w: H x V): seed with bias (+ the token's wx row),
// then per p ascending skip h[p] == 0.0f and accumulate h[p] * row into
// the output row. Identical expression shape on both sides means the
// compiler makes the same contraction choice for both, whatever the
// flags. The nonlinearities/cell update are the same inline helpers
// (nn/gate_math.hpp) the reference compiles.
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

const Kernels* select_kernels() {
  if (effective_infer_mode() == InferMode::kAvx2) {
    if (const Kernels* k = avx2_kernels(); k != nullptr) return k;
  }
  return scalar_kernels();
}

}  // namespace

const Kernels* scalar_kernels() {
  static const Kernels kernels = {
      &scalar_gates_batch, &scalar_activate_update, &scalar_head_batch, &scalar_softmax,
  };
  return &kernels;
}

std::unique_ptr<LstmInferEngine> LstmInferEngine::build(const NextActionModel& model) {
  const ModelConfig& config = model.config();
  if (config.layers != 1 || config.embedding_dim != 0 || config.cell != CellKind::kLstm ||
      model.layer_count() != 1 || model.has_embedding()) {
    return nullptr;
  }
  const auto* cell = dynamic_cast<const Lstm*>(&model.layer(0));
  if (cell == nullptr) return nullptr;
  const Dense& head = model.head();
  assert(head.in_dim() == cell->hidden());
  LstmWeights w;
  w.vocab = cell->vocab();
  w.hidden = cell->hidden();
  w.head_out = head.out_dim();
  w.wx = cell->wx().data();
  w.wh = cell->wh().data();
  w.bias = cell->bias().data();
  w.head_w = head.weights().data();
  w.head_b = head.bias().data();
  return std::unique_ptr<LstmInferEngine>(new LstmInferEngine(w));
}

EngineState LstmInferEngine::make_state() const {
  EngineState state;
  state.h.assign(w_.hidden, 0.0f);
  state.c.assign(w_.hidden, 0.0f);
  return state;
}

void LstmInferEngine::step(EngineState& state, int action, std::vector<float>& probs,
                           EngineScratch& scratch) const {
  EngineState* const row = &state;
  std::vector<float>* const out = &probs;
  step_batch({&row, 1}, {&action, 1}, {&out, 1}, scratch);
}

void LstmInferEngine::step_batch(std::span<EngineState* const> states, std::span<const int> actions,
                                 std::span<std::vector<float>* const> probs,
                                 EngineScratch& scratch) const {
  assert(states.size() == actions.size() && states.size() == probs.size());
  // Past rows_per_pass() rows the gate scratch outgrows L1d and every
  // weight row read pays for it; rows are independent, so the split
  // keeps every bit.
  const std::size_t pass = rows_per_pass();
  for (std::size_t b = 0; b < states.size(); b += pass) {
    const std::size_t m = std::min(pass, states.size() - b);
    step_pass(states.subspan(b, m), actions.subspan(b, m), probs.subspan(b, m), scratch);
  }
}

void LstmInferEngine::step_pass(std::span<EngineState* const> states, std::span<const int> actions,
                                std::span<std::vector<float>* const> probs,
                                EngineScratch& scratch) const {
  const std::size_t n = states.size();
  const Kernels* k = select_kernels();
  const std::size_t hidden = w_.hidden;
  const std::size_t g4 = 4 * hidden;
  scratch.gates.resize(n * g4);
  scratch.h_rows.resize(n);
  scratch.gate_rows.resize(n);
  scratch.logit_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.h_rows[i] = states[i]->h.data();
    scratch.gate_rows[i] = scratch.gates.data() + i * g4;
  }
  k->gates_batch(w_, scratch.h_rows.data(), actions.data(), scratch.gate_rows.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    k->activate_update(scratch.gate_rows[i], hidden, states[i]->c.data(), states[i]->h.data());
    probs[i]->resize(w_.head_out);
    scratch.logit_rows[i] = probs[i]->data();
  }
  // h advanced in place above; h_rows still point at the live storage.
  k->head_batch(w_, scratch.h_rows.data(), scratch.logit_rows.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    k->softmax(scratch.logit_rows[i], w_.head_out, scratch.logit_rows[i]);
  }
}

void LstmInferEngine::finish_probs(const EngineState& state, std::vector<float>& probs) const {
  const Kernels* k = select_kernels();
  probs.resize(w_.head_out);
  const float* const h = state.h.data();
  float* const logits = probs.data();
  k->head_batch(w_, &h, &logits, 1);
  k->softmax(logits, w_.head_out, logits);
}

}  // namespace misuse::nn::infer
