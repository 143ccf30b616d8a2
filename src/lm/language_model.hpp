// ActionLanguageModel: the paper's behavior model as a trainable unit —
// the LSTM next-action network (§IV-A: 256 units, dropout 0.4, minibatch
// 32, learning rate 0.001) plus the training loop with validation-based
// early stopping and the evaluation metrics the paper reports (next-action
// accuracy, cross-entropy loss, per-action likelihood).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lm/batching.hpp"
#include "nn/next_action_model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace misuse::lm {

struct LmConfig {
  std::size_t vocab = 0;
  std::size_t hidden = 256;   // paper value; experiments scale this down
  std::size_t layers = 1;     // stacked LSTM layers (paper value: 1)
  std::size_t embedding_dim = 0;  // 0 = one-hot input (paper value)
  nn::CellKind cell = nn::CellKind::kLstm;  // recurrent cell (paper: LSTM)
  float dropout = 0.4f;       // paper value
  float learning_rate = 1e-3f;  // paper value
  nn::OptimizerKind optimizer = nn::OptimizerKind::kAdam;
  float clip_norm = 5.0f;
  std::size_t epochs = 10;
  /// Stop when validation loss fails to improve this many epochs in a
  /// row; 0 disables early stopping.
  std::size_t patience = 3;
  /// Restore the parameters of the best validation epoch after fit()
  /// (only effective when validation data is provided).
  bool restore_best = true;
  BatchingConfig batching;
  std::uint64_t seed = 11;
};

struct EpochStats {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double valid_loss = 0.0;
  double valid_accuracy = 0.0;
};

struct EvalStats {
  double loss = 0.0;
  double accuracy = 0.0;
  std::size_t predictions = 0;
};

/// Knobs of a warm-start fine-tuning pass (continuous learning): a short
/// training run that continues from the model's current weights instead
/// of a fresh initialization. The learning rate defaults well below the
/// from-scratch rate so a small recent-behavior corpus nudges the model
/// rather than overwriting what the full training corpus taught it.
struct FineTuneOptions {
  std::size_t epochs = 2;
  float learning_rate = 2e-4f;
  /// Early-stopping patience (0 disables; restore_best still applies).
  std::size_t patience = 0;
  /// Seed for batch shuffling and dropout during the pass.
  std::uint64_t seed = 17;
};

class ActionLanguageModel {
 public:
  explicit ActionLanguageModel(const LmConfig& config);

  const LmConfig& config() const { return config_; }

  /// Trains on `train` with per-epoch validation on `valid` (which may be
  /// empty: then no early stopping occurs). Returns per-epoch stats.
  std::vector<EpochStats> fit(std::span<const std::span<const int>> train,
                              std::span<const std::span<const int>> valid);

  /// Warm-start fine-tuning: continues training from the current weights
  /// under the options' epochs/learning-rate/seed (fit() already trains
  /// in place; this entry point additionally pins the pass's
  /// hyperparameters and reseeds the shuffle/dropout stream so two
  /// fine-tunes of identical clones are bit-identical). The fresh
  /// optimizer state per pass is deliberate: Adam moments from the
  /// original training run are not part of the archive.
  std::vector<EpochStats> fine_tune(std::span<const std::span<const int>> train,
                                    std::span<const std::span<const int>> valid,
                                    const FineTuneOptions& options);

  /// Deep copy (weights and config; fresh RNG seeded from the config) —
  /// the candidate model a fine-tuning pass starts from.
  ActionLanguageModel clone() const;

  /// Next-action loss/accuracy over every predictable position of the
  /// given sessions (computed in full-sequence batches; mathematically
  /// the same predictions as the windowed scheme for sessions up to the
  /// window length).
  EvalStats evaluate(std::span<const std::span<const int>> sessions);

  /// Per-action scores of a single session (the online monitoring path).
  nn::NextActionModel::SessionScore score_session(std::span<const int> actions) const;

  /// Streaming access (the online monitor batches through network()).
  nn::ModelState make_state() const { return model_->make_state(); }
  std::vector<float> step(nn::ModelState& state, int action) const {
    return model_->step(state, action);
  }

  /// The underlying network: its streaming forward and layer views.
  const nn::NextActionModel& network() const { return *model_; }

  std::size_t parameter_count() { return model_->parameter_count(); }

  void save(BinaryWriter& w) const;
  static ActionLanguageModel load(BinaryReader& r);

 private:
  ActionLanguageModel(const LmConfig& config, nn::NextActionModel model);

  LmConfig config_;
  std::unique_ptr<nn::NextActionModel> model_;
  Rng rng_;
};

}  // namespace misuse::lm
