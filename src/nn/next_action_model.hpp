// The paper's behavior model (§IV-A): one LSTM layer (256 units at paper
// scale), a dropout layer (rate 0.4), and a dense softmax head predicting
// a probability distribution over the action vocabulary for the next
// action given the observed prefix. Trained with minibatch cross-entropy
// (batch 32, lr 0.001).
//
// The model exposes three surfaces:
//   * batched training/evaluation over SequenceBatch (moving-window or
//     full-session targets — the batching policy lives in src/lm),
//   * streaming inference for the online monitor (state in, probability
//     distribution out, one action at a time),
//   * binary save/load for deployment after the training phase (Fig. 2).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/dropout.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/recurrent.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax_xent.hpp"
#include "util/rng.hpp"

namespace misuse::nn {

/// Target id meaning "no loss at this position" (e.g. padding tail).
inline constexpr int kIgnoreTarget = -1;

/// A time-major minibatch: tokens[t][b] is the input action at step t for
/// batch row b (kPadToken for the zero vector), targets[t][b] the action
/// the model must predict at step t (kIgnoreTarget to skip the position).
struct SequenceBatch {
  std::vector<std::vector<int>> tokens;
  std::vector<std::vector<int>> targets;

  std::size_t time_steps() const { return tokens.size(); }
  std::size_t batch_size() const { return tokens.empty() ? 0 : tokens.front().size(); }
  /// Number of positions that contribute loss.
  std::size_t target_count() const;
};

struct ModelConfig {
  std::size_t vocab = 0;     // d — number of distinct actions
  std::size_t hidden = 256;  // LSTM units per layer (paper value)
  std::size_t layers = 1;    // stacked LSTM layers (paper uses 1; >1 is the
                             // architecture axis of the per-cluster
                             // hyperparameter re-evaluation left as future
                             // work in SS IV-A)
  /// Learned embedding dimension; 0 feeds one-hot vectors straight into
  /// the LSTM (the paper's encoding, SS IV-A).
  std::size_t embedding_dim = 0;
  /// Recurrent cell type (paper value: LSTM).
  CellKind cell = CellKind::kLstm;
  float dropout = 0.4f;      // paper value; also applied between layers
};

/// Streaming state of the whole stack: each layer's h and c (1 x H). The
/// step's scratch is per thread (next_action_model.cpp), so concurrent
/// streams never contend and a steady-state step allocates nothing.
struct ModelState {
  std::vector<LstmState> layers;
  void reset() {
    for (auto& l : layers) l.reset();
  }
};

struct TrainStepStats {
  double loss = 0.0;      // mean cross-entropy over target positions
  double accuracy = 0.0;  // next-action argmax accuracy
  float grad_norm = 0.0f; // pre-clip global gradient norm
  std::size_t targets = 0;
};

class NextActionModel {
 public:
  NextActionModel(const ModelConfig& config, Rng& rng);

  const ModelConfig& config() const { return config_; }
  ParameterList params();
  std::size_t parameter_count();

  /// One optimizer step on a minibatch; returns loss/accuracy over the
  /// batch's target positions. `clip_norm` <= 0 disables clipping.
  TrainStepStats train_batch(const SequenceBatch& batch, Optimizer& optimizer, Rng& rng,
                             float clip_norm = 5.0f);

  /// Loss/accuracy without dropout or updates.
  XentResult evaluate(const SequenceBatch& batch);

  /// Per-position probabilities of the true targets (the paper's
  /// per-action likelihood), in batch scan order (t-major, loss
  /// positions only).
  std::vector<double> target_likelihoods(const SequenceBatch& batch);

  // --- Streaming forward (the online monitor and every scorer) ---------
  /// Fresh zero state for a single stream.
  ModelState make_state() const;
  /// Feeds one observed action and returns the probability distribution
  /// over the next action (length vocab).
  std::vector<float> step(ModelState& state, int action) const;

  /// step_batch of one row: writes the distribution into `probs`
  /// (resized to vocab). Bit-identical to step().
  void step_into(ModelState& state, int action, std::vector<float>& probs) const;

  /// states[i] advances on actions[i] and writes its next-action
  /// distribution into *probs[i]. The paper shape (one token-input LSTM
  /// layer) runs the kernel table effective_infer_mode() selects
  /// (nn/infer/kernels.hpp), rows_per_pass() rows a pass, reading each
  /// weight row once per pass; GRU, stacked and embedding models step
  /// layer by layer, one row at a time. Either way a row's bits do not
  /// depend on the batch it rides in, so this equals step_into row by
  /// row, in order.
  void step_batch(std::span<ModelState* const> states, std::span<const int> actions,
                  std::span<std::vector<float>* const> probs) const;

  /// Rows one kernel pass sweeps: as many as keep the pass's gate scratch
  /// (4H floats a row) within 32 KiB, so it stays in L1d while each
  /// weight row streams past — 8 rows at H = 256, 128 at H = 16. 1 for
  /// shapes that step row by row.
  std::size_t rows_per_pass() const;

  /// Head + softmax alone, from the top layer's h: the distribution the
  /// state's last advance wrote, recomputed bit for bit.
  void head_probs(const ModelState& state, std::vector<float>& probs) const;

  /// Scores a whole session: element i is the model probability assigned
  /// to actions[i] given actions[0..i-1]; the first action gets the
  /// model's unconditional first-step distribution. Sessions shorter than
  /// 2 actions return an empty vector (the paper filters those out).
  struct SessionScore {
    std::vector<double> likelihoods;  // p(a_i | a_1..a_{i-1}), i >= 2
    std::vector<double> losses;       // -log of the same
    double avg_likelihood() const;
    double avg_loss() const;
    /// exp(mean loss): the perplexity measure the paper suggests as
    /// future work (§V).
    double perplexity() const;
    /// Fraction of steps where the model's argmax equals the true action.
    double accuracy = 0.0;
  };
  SessionScore score_session(std::span<const int> actions) const;

  void save(BinaryWriter& w) const;
  static NextActionModel load(BinaryReader& r);

  /// Deep copy via a save/load round-trip. The layer objects own scratch
  /// and gather bookkeeping that must not be shared between copies, so the
  /// persisted form — weights only — is the one representation that
  /// duplicates the network exactly. This is the warm-start entry point:
  /// continuous learning clones the active model and fine-tunes the clone.
  NextActionModel clone() const;

  // --- Read-only structure views (tests and benches) -------------------
  std::size_t layer_count() const { return lstms_.size(); }
  const RecurrentLayer& layer(std::size_t i) const { return *lstms_.at(i); }
  const Dense& head() const { return head_; }
  bool has_embedding() const { return embedding_ != nullptr; }

 private:
  NextActionModel(const ModelConfig& config, std::unique_ptr<Embedding> embedding,
                  std::vector<std::unique_ptr<RecurrentLayer>> layers, Dense head);

  /// The paper shape's token-input LSTM, which the kernel table runs;
  /// null for every other shape.
  const Lstm* kernel_cell() const;
  /// One row, layer by layer (the shapes the kernel table does not run).
  void step_layers(ModelState& state, int action, std::vector<float>& probs) const;

  /// Shared forward: runs the LSTM, gathers loss positions, applies
  /// dropout when rng != nullptr, and fills logits. Records gather
  /// indices for backward.
  void forward_gather(const SequenceBatch& batch, Rng* rng, Matrix& logits,
                      std::vector<int>& flat_targets);

  ModelConfig config_;
  std::unique_ptr<Embedding> embedding_;  // null when embedding_dim == 0
  std::vector<std::unique_ptr<RecurrentLayer>> lstms_;  // [0] token-input; rest dense
  std::vector<Dropout> inter_dropout_; // between stacked layers (layers-1)
  Dropout dropout_;                    // before the dense head
  Dense head_;
  // Gather bookkeeping from the last forward_gather call.
  std::vector<std::pair<std::size_t, std::size_t>> gather_positions_;  // (t, b)
  Matrix gathered_hidden_;
};

}  // namespace misuse::nn
