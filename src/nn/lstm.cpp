#include "nn/lstm.hpp"

#include <cassert>
#include <cmath>

#include "nn/gate_math.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn {

Lstm::Lstm(std::size_t vocab, std::size_t hidden, Rng& rng) : Lstm(vocab, hidden) {
  wx_.value.init_xavier(rng);
  wh_.value.init_xavier(rng);
  // Forget-gate bias at +1: standard LSTM practice so early training does
  // not erase the cell state.
  for (std::size_t j = hidden_; j < 2 * hidden_; ++j) b_.value(0, j) = 1.0f;
}

Lstm::Lstm(std::size_t vocab, std::size_t hidden)
    : vocab_(vocab),
      hidden_(hidden),
      wx_("lstm.wx", vocab, 4 * hidden),
      wh_("lstm.wh", hidden, 4 * hidden),
      b_("lstm.b", 1, 4 * hidden) {
  assert(vocab > 0 && hidden > 0);
}

ParameterList Lstm::params() { return {&wx_, &wh_, &b_}; }

void Lstm::compute_gates(const std::vector<int>& tokens_b, const Matrix& h_prev,
                         Matrix& gates) const {
  const std::size_t b = tokens_b.size();
  const std::size_t g4 = 4 * hidden_;
  assert(gates.rows() == b && gates.cols() == g4);
  // gates = bias (broadcast) + Wx[token] + h_prev * Wh
  for (std::size_t r = 0; r < b; ++r) {
    float* row = gates.data() + r * g4;
    const float* bias = b_.value.data();
    for (std::size_t j = 0; j < g4; ++j) row[j] = bias[j];
    const int tok = tokens_b[r];
    if (tok != kPadToken) {
      assert(tok >= 0 && static_cast<std::size_t>(tok) < vocab_);
      const float* wrow = wx_.value.data() + static_cast<std::size_t>(tok) * g4;
      for (std::size_t j = 0; j < g4; ++j) row[j] += wrow[j];
    }
  }
  gemm(1.0f, h_prev, wh_.value, 1.0f, gates);
}

void Lstm::apply_gate_nonlinearities(Matrix& gates, std::size_t hidden) {
  // Shared with the streaming forward's scalar kernel (nn/gate_math.hpp)
  // so both paths compile the identical expression tree.
  const std::size_t g4 = 4 * hidden;
  for (std::size_t r = 0; r < gates.rows(); ++r) {
    lstm_activate_gates(gates.data() + r * g4, hidden);
  }
}

void Lstm::compute_gates_dense(const Matrix& input, const Matrix& h_prev, Matrix& gates) const {
  assert(input.rows() == gates.rows());
  assert(input.cols() == vocab_);
  // gates = bias (broadcast) + X * Wx + h_prev * Wh.
  for (std::size_t r = 0; r < gates.rows(); ++r) {
    float* row = gates.data() + r * gates.cols();
    const float* bias = b_.value.data();
    for (std::size_t j = 0; j < gates.cols(); ++j) row[j] = bias[j];
  }
  gemm(1.0f, input, wx_.value, 1.0f, gates);
  gemm(1.0f, h_prev, wh_.value, 1.0f, gates);
}

void Lstm::forward_step(StepRecord& rec, const Matrix& c_prev) {
  apply_gate_nonlinearities(rec.gates, hidden_);
  rec.c.resize(batch_, hidden_);
  rec.tanh_c.resize(batch_, hidden_);
  rec.h.resize(batch_, hidden_);
  for (std::size_t r = 0; r < batch_; ++r) {
    const float* g = rec.gates.data() + r * 4 * hidden_;
    const float* cp = c_prev.data() + r * hidden_;
    float* c = rec.c.data() + r * hidden_;
    float* tc = rec.tanh_c.data() + r * hidden_;
    float* h = rec.h.data() + r * hidden_;
    for (std::size_t j = 0; j < hidden_; ++j) {
      const float i_g = g[j];
      const float f_g = g[hidden_ + j];
      const float g_g = g[2 * hidden_ + j];
      const float o_g = g[3 * hidden_ + j];
      c[j] = f_g * cp[j] + i_g * g_g;
      tc[j] = std::tanh(c[j]);
      h[j] = o_g * tc[j];
    }
  }
}

void Lstm::forward(const std::vector<std::vector<int>>& tokens) {
  assert(!tokens.empty());
  batch_ = tokens.front().size();
  dense_mode_ = false;
  steps_.clear();
  steps_.reserve(tokens.size());

  Matrix h_prev(batch_, hidden_);
  Matrix c_prev(batch_, hidden_);

  for (const auto& tokens_b : tokens) {
    assert(tokens_b.size() == batch_);
    StepRecord rec;
    rec.tokens = tokens_b;
    rec.gates.resize(batch_, 4 * hidden_);
    compute_gates(tokens_b, h_prev, rec.gates);
    forward_step(rec, c_prev);
    h_prev = rec.h;
    c_prev = rec.c;
    steps_.push_back(std::move(rec));
  }
}

void Lstm::forward_dense(const std::vector<Matrix>& inputs) {
  assert(!inputs.empty());
  batch_ = inputs.front().rows();
  dense_mode_ = true;
  steps_.clear();
  steps_.reserve(inputs.size());

  Matrix h_prev(batch_, hidden_);
  Matrix c_prev(batch_, hidden_);

  for (const auto& input : inputs) {
    assert(input.rows() == batch_);
    StepRecord rec;
    rec.dense_input = input;
    rec.gates.resize(batch_, 4 * hidden_);
    compute_gates_dense(input, h_prev, rec.gates);
    forward_step(rec, c_prev);
    h_prev = rec.h;
    c_prev = rec.c;
    steps_.push_back(std::move(rec));
  }
}

void Lstm::backward(const std::vector<Matrix>& d_hidden, std::vector<Matrix>* d_inputs) {
  assert(d_hidden.size() == steps_.size());
  assert(d_inputs == nullptr || dense_mode_);
  if (d_inputs != nullptr) d_inputs->assign(steps_.size(), Matrix(batch_, vocab_));
  const std::size_t g4 = 4 * hidden_;

  Matrix dh(batch_, hidden_);       // dL/dh_t flowing backward
  Matrix dc(batch_, hidden_);       // dL/dc_t flowing backward
  Matrix d_gates(batch_, g4);       // pre-activation gate grads at step t
  Matrix dh_from_rec(batch_, hidden_);

  for (std::size_t ti = steps_.size(); ti > 0; --ti) {
    const std::size_t t = ti - 1;
    const StepRecord& rec = steps_[t];
    assert(d_hidden[t].rows() == batch_ && d_hidden[t].cols() == hidden_);

    // dh = loss contribution at t + recurrent contribution from t+1.
    for (std::size_t i = 0; i < dh.size(); ++i) {
      dh.flat()[i] = d_hidden[t].flat()[i] + (ti == steps_.size() ? 0.0f : dh_from_rec.flat()[i]);
    }

    const Matrix* c_prev = (t == 0) ? nullptr : &steps_[t - 1].c;

    for (std::size_t r = 0; r < batch_; ++r) {
      const float* g = rec.gates.data() + r * g4;
      const float* tc = rec.tanh_c.data() + r * hidden_;
      const float* cp = c_prev ? c_prev->data() + r * hidden_ : nullptr;
      const float* dhr = dh.data() + r * hidden_;
      float* dcr = dc.data() + r * hidden_;
      float* dg = d_gates.data() + r * g4;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float i_g = g[j];
        const float f_g = g[hidden_ + j];
        const float g_g = g[2 * hidden_ + j];
        const float o_g = g[3 * hidden_ + j];
        const float d_o = dhr[j] * tc[j];
        // dc accumulates the path through h_t (via tanh) and the direct
        // path from c_{t+1} already stored in dcr.
        const float dct = dcr[j] + dhr[j] * o_g * (1.0f - tc[j] * tc[j]);
        const float d_i = dct * g_g;
        const float d_g = dct * i_g;
        const float d_f = cp ? dct * cp[j] : 0.0f;
        // Pre-activation gradients.
        dg[j] = d_i * i_g * (1.0f - i_g);
        dg[hidden_ + j] = d_f * f_g * (1.0f - f_g);
        dg[2 * hidden_ + j] = d_g * (1.0f - g_g * g_g);
        dg[3 * hidden_ + j] = d_o * o_g * (1.0f - o_g);
        // dL/dc_{t-1} = dct * f_t.
        dcr[j] = dct * f_g;
      }
    }

    // Parameter gradients.
    if (dense_mode_) {
      // dWx += X_t^T * d_gates; dX_t = d_gates * Wx^T.
      gemm_at_b(1.0f, rec.dense_input, d_gates, 1.0f, wx_.grad);
      if (d_inputs != nullptr) {
        gemm_a_bt(1.0f, d_gates, wx_.value, 0.0f, (*d_inputs)[t]);
      }
    } else {
      // dWx: scatter-add each batch row's d_gates into the token's row.
      for (std::size_t r = 0; r < batch_; ++r) {
        const int tok = rec.tokens[r];
        if (tok == kPadToken) continue;
        float* wrow = wx_.grad.data() + static_cast<std::size_t>(tok) * g4;
        const float* dg = d_gates.data() + r * g4;
        for (std::size_t j = 0; j < g4; ++j) wrow[j] += dg[j];
      }
    }
    // dWh += h_{t-1}^T * d_gates.
    if (t > 0) {
      gemm_at_b(1.0f, steps_[t - 1].h, d_gates, 1.0f, wh_.grad);
    }
    // db += column sums of d_gates.
    for (std::size_t r = 0; r < batch_; ++r) {
      const float* dg = d_gates.data() + r * g4;
      float* db = b_.grad.data();
      for (std::size_t j = 0; j < g4; ++j) db[j] += dg[j];
    }
    // dh_{t-1} (recurrent input grad) = d_gates * Wh^T.
    if (t > 0) {
      gemm_a_bt(1.0f, d_gates, wh_.value, 0.0f, dh_from_rec);
    }
  }
}

void Lstm::finish_state_update(const Matrix& gates, LstmState& state) const {
  // Shared with the streaming forward's scalar kernel (nn/gate_math.hpp).
  for (std::size_t r = 0; r < gates.rows(); ++r) {
    lstm_cell_update(gates.data() + r * 4 * hidden_, hidden_, state.c.data() + r * hidden_,
                     state.h.data() + r * hidden_);
  }
}

void Lstm::step(const std::vector<int>& tokens_b, LstmState& state) const {
  Matrix gates;
  step_scratch(tokens_b, state, gates);
}

void Lstm::step_scratch(const std::vector<int>& tokens_b, LstmState& state,
                        Matrix& gate_scratch) const {
  const std::size_t b = tokens_b.size();
  assert(state.h.rows() == b && state.h.cols() == hidden_);
  gate_scratch.resize(b, 4 * hidden_);
  compute_gates(tokens_b, state.h, gate_scratch);
  apply_gate_nonlinearities(gate_scratch, hidden_);
  finish_state_update(gate_scratch, state);
}

void Lstm::step_dense(const Matrix& input, LstmState& state) const {
  Matrix gates;
  step_dense_scratch(input, state, gates);
}

void Lstm::step_dense_scratch(const Matrix& input, LstmState& state, Matrix& gate_scratch) const {
  assert(state.h.rows() == input.rows() && state.h.cols() == hidden_);
  gate_scratch.resize(input.rows(), 4 * hidden_);
  compute_gates_dense(input, state.h, gate_scratch);
  apply_gate_nonlinearities(gate_scratch, hidden_);
  finish_state_update(gate_scratch, state);
}

void Lstm::save(BinaryWriter& w) const {
  w.write<std::uint64_t>(vocab_);
  w.write<std::uint64_t>(hidden_);
  wx_.value.save(w);
  wh_.value.save(w);
  b_.value.save(w);
}

Lstm Lstm::load(BinaryReader& r) {
  const auto vocab = static_cast<std::size_t>(r.read<std::uint64_t>());
  const auto hidden = static_cast<std::size_t>(r.read<std::uint64_t>());
  Lstm lstm(vocab, hidden);
  lstm.wx_.value = Matrix::load(r);
  lstm.wh_.value = Matrix::load(r);
  lstm.b_.value = Matrix::load(r);
  if (lstm.wx_.value.rows() != vocab || lstm.wx_.value.cols() != 4 * hidden ||
      lstm.wh_.value.rows() != hidden || lstm.b_.value.cols() != 4 * hidden) {
    throw SerializeError("LSTM archive shape mismatch");
  }
  return lstm;
}

}  // namespace misuse::nn
