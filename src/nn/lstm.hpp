// Long Short-Term Memory layer (Hochreiter & Schmidhuber 1997) with
// hand-derived backpropagation through time.
//
// The paper feeds one-hot encoded actions straight into the LSTM, so the
// input-to-hidden product X_t * Wx reduces to selecting the token's row of
// Wx. The layer therefore consumes *token ids* per timestep; id kPadToken
// denotes the zero vector used for the paper's left-padding (such steps
// are still processed — only the input contribution vanishes — matching
// the windowing described in §IV-A).
//
// Gate layout inside the fused 4H dimension: [input i | forget f |
// candidate g | output o].
#pragma once

#include <cstdint>
#include <vector>

#include "nn/parameter.hpp"
#include "nn/recurrent.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::nn {

/// Token id standing for the all-zero input vector (left padding).
inline constexpr int kPadToken = -1;

/// Recurrent state for streaming (online monitoring) use.
struct LstmState {
  Matrix h;  // batch x hidden
  Matrix c;  // batch x hidden

  LstmState() = default;
  LstmState(std::size_t batch, std::size_t hidden) : h(batch, hidden), c(batch, hidden) {}
  void reset() {
    h.zero();
    c.zero();
  }
};

class Lstm final : public RecurrentLayer {
 public:
  /// vocab = input one-hot dimension d; hidden = number of LSTM units.
  Lstm(std::size_t vocab, std::size_t hidden, Rng& rng);

  /// For deserialization.
  Lstm(std::size_t vocab, std::size_t hidden);

  std::size_t vocab() const { return vocab_; }
  std::size_t input_dim() const override { return vocab_; }
  std::size_t hidden() const override { return hidden_; }

  ParameterList params() override;

  /// Full-sequence forward over tokens[t][b] (T timesteps, batch B).
  /// Stores activations for backward(). Returns nothing; read hidden
  /// states via hidden_at().
  void forward(const std::vector<std::vector<int>>& tokens) override;

  /// Dense-input forward: inputs[t] is a (B x vocab) activation matrix —
  /// the stacked-layer path, where "vocab" is the lower layer's hidden
  /// width. Mutually exclusive with token forward for a given pass.
  void forward_dense(const std::vector<Matrix>& inputs) override;

  /// Hidden output h_t for timestep t of the last forward() (B x H).
  const Matrix& hidden_at(std::size_t t) const override { return steps_.at(t).h; }
  std::size_t steps() const override { return steps_.size(); }
  std::size_t batch() const override { return batch_; }

  /// BPTT. d_hidden[t] is dL/dh_t (B x H; may be zero for timesteps that
  /// feed no loss). Accumulates into parameter grads. When the last
  /// forward was dense and `d_inputs` is non-null, it is filled with
  /// dL/dinputs[t] for the layer below.
  void backward(const std::vector<Matrix>& d_hidden,
                std::vector<Matrix>* d_inputs = nullptr) override;

  /// Streaming single-batch step: consumes one token per batch row and
  /// advances state in place. No activation recording (inference only).
  void step(const std::vector<int>& tokens_b, LstmState& state) const override;

  /// Streaming dense-input step (stacked-layer path).
  void step_dense(const Matrix& input, LstmState& state) const override;

  /// Allocation-free step variants: the caller owns the gate scratch
  /// buffer and reuses it across steps (the monitor hot path).
  void step_scratch(const std::vector<int>& tokens_b, LstmState& state,
                    Matrix& gate_scratch) const override;
  void step_dense_scratch(const Matrix& input, LstmState& state,
                          Matrix& gate_scratch) const override;

  void save(BinaryWriter& w) const override;
  static Lstm load(BinaryReader& r);

  /// Read-only weight views, which the streaming forward's kernels read in
  /// place (nn/infer/kernels.hpp): wx is vocab x 4H, wh is H x 4H, bias
  /// 1 x 4H.
  const Matrix& wx() const { return wx_.value; }
  const Matrix& wh() const { return wh_.value; }
  const Matrix& bias() const { return b_.value; }

 private:
  struct StepRecord {
    std::vector<int> tokens;  // B (token mode)
    Matrix dense_input;       // B x vocab (dense mode)
    Matrix gates;             // B x 4H, post-activation [i f g o]
    Matrix c;                 // B x H
    Matrix tanh_c;            // B x H
    Matrix h;                 // B x H
  };

  void compute_gates(const std::vector<int>& tokens_b, const Matrix& h_prev, Matrix& gates) const;
  void compute_gates_dense(const Matrix& input, const Matrix& h_prev, Matrix& gates) const;
  void forward_step(StepRecord& rec, const Matrix& c_prev);
  static void apply_gate_nonlinearities(Matrix& gates, std::size_t hidden);
  void finish_state_update(const Matrix& gates, LstmState& state) const;

  std::size_t vocab_;
  std::size_t hidden_;
  Parameter wx_;  // vocab x 4H — one-hot input weights (row per action)
  Parameter wh_;  // H x 4H — recurrent weights
  Parameter b_;   // 1 x 4H — bias (forget gate initialized to +1)
  std::vector<StepRecord> steps_;
  std::size_t batch_ = 0;
  bool dense_mode_ = false;
};

}  // namespace misuse::nn
