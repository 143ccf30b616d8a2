// MisuseDetector: the paper's full pipeline (Fig. 2).
//
// Training phase:
//   1. fit an LDA ensemble on the historical sessions H (topic modeling),
//   2. run the (headless) expert policy over the ensemble's artifacts to
//      obtain k semantically meaningful behavior clusters G_1..G_k,
//   3. split each cluster 70/15/15 into train/valid/test,
//   4. train one OC-SVM per cluster on its training sessions (cluster
//      routing), and
//   5. train one LSTM language model per cluster (behavior modeling).
//
// Prediction phase: a new session is routed to the cluster G_max with the
// maximal OC-SVM score and scored by that cluster's language model; the
// average per-action likelihood (or loss) is its normality estimate.
//
// The training phase "can be repeated at any moment if security experts
// notice sufficient drift" — retraining is just calling train() again on
// the refreshed store.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/assigner.hpp"
#include "cluster/expert_policy.hpp"
#include "lm/language_model.hpp"
#include "lm/markov.hpp"
#include "sessions/store.hpp"
#include "topics/ensemble.hpp"

namespace misuse::core {

struct DetectorConfig {
  topics::EnsembleConfig ensemble;
  cluster::ExpertPolicyConfig expert;
  cluster::AssignerConfig assigner;  // features.vocab is filled at train time
  lm::LmConfig lm;                   // vocab is filled at train time
  double train_frac = 0.70;          // paper proportions
  double valid_frac = 0.15;
  std::size_t min_session_actions = 2;  // §IV-A filter
  std::uint64_t seed = 123;
};

/// Per-cluster bookkeeping: the expert-derived membership, its
/// train/valid/test split (indices into the training store), and a
/// human-readable label mined from the cluster's characteristic actions.
struct ClusterInfo {
  std::string label;
  std::vector<std::size_t> members;
  std::vector<std::size_t> train;
  std::vector<std::size_t> valid;
  std::vector<std::size_t> test;

  std::size_t size() const { return members.size(); }
};

/// Per-epoch training history of one cluster model (for reporting).
struct ClusterTrainReport {
  std::vector<lm::EpochStats> epochs;
};

/// Knobs of an incremental retraining pass (continuous learning,
/// src/learn): a short warm-start update of an existing detector on
/// recently collected per-cluster session windows. The cluster structure
/// and vocabulary are inherited from the parent — the pass refreshes
/// weights, never topology — so the candidate stays vocab-compatible with
/// the parent and can be shadow-scored and hot-swapped against it.
struct FineTuneConfig {
  std::size_t epochs = 2;
  float learning_rate = 2e-4f;
  /// Fraction of each cluster's windows held out for validation during
  /// the fine-tuning pass (deterministic interleaved split).
  double valid_frac = 0.15;
  /// Clusters with fewer collected windows keep the parent's LSTM and
  /// OC-SVM verbatim (no update on starved clusters).
  std::size_t min_cluster_sessions = 8;
  /// Topics of the incremental LDA refresh over the collected windows
  /// (0 = reuse the parent's cluster count). The refreshed topics are
  /// compared against each cluster's training distribution to measure how
  /// far the evolving topic structure has moved from the cluster
  /// structure the detector was built on.
  std::size_t lda_topics = 0;
  std::size_t lda_iterations = 60;
  std::uint64_t seed = 97;
};

/// What one fine-tuning pass did to one cluster.
struct FineTuneClusterStats {
  std::size_t sessions = 0;  // collected windows routed to this cluster
  bool tuned = false;        // false: kept the parent model verbatim
  std::vector<lm::EpochStats> epochs;
  /// Max cosine similarity between the cluster's training action
  /// distribution and any topic of the refreshed LDA fit (1 when the LDA
  /// refresh was skipped for lack of data). Low alignment means the
  /// evolving topic structure no longer matches this cluster — the signal
  /// that weight-only fine-tuning is reaching its limits and a full
  /// retrain (new clustering) is due.
  double topic_alignment = 1.0;
};

struct FineTuneReport {
  std::vector<FineTuneClusterStats> clusters;
  std::size_t windows = 0;  // total windows consumed by the pass
};

class MisuseDetector {
 public:
  /// Trains the full pipeline on a session store. The store must outlive
  /// nothing — all needed data is copied in.
  static MisuseDetector train(const SessionStore& store, const DetectorConfig& config);

  /// Incremental retraining (core/finetune.cpp): returns a candidate
  /// detector derived from `parent` by warm-start fine-tuning each
  /// cluster's LSTM on `cluster_windows[c]` (recently collected sessions
  /// routed to cluster c), refitting the per-cluster OC-SVMs where data
  /// suffices, and folding the windows into the Markov fallbacks (whose
  /// counts accumulate, so the candidate's drift reference tracks recent
  /// behavior). Vocabulary, cluster structure, and config are inherited
  /// unchanged. Deterministic: same parent + windows + config ⇒
  /// bit-identical candidate. Throws SerializeError when the parent has
  /// degraded clusters (fine-tuning a fallback would launder a corrupt
  /// archive into a "healthy" candidate) or no fallbacks (v1 archives).
  static MisuseDetector fine_tune(const MisuseDetector& parent,
                                  const std::vector<std::vector<std::vector<int>>>& cluster_windows,
                                  const FineTuneConfig& config, FineTuneReport* report = nullptr);

  std::size_t cluster_count() const { return clusters_.size(); }
  const ClusterInfo& cluster(std::size_t c) const { return clusters_.at(c); }
  const std::vector<ClusterInfo>& clusters() const { return clusters_; }
  const ClusterTrainReport& train_report(std::size_t c) const { return reports_.at(c); }

  /// Cluster language model (non-const: evaluation reuses internal
  /// forward buffers). Must not be called for a degraded cluster (the
  /// LSTM did not survive the archive); use the ClusterState API below,
  /// which routes degraded clusters to their Markov fallback.
  lm::ActionLanguageModel& model(std::size_t c) { return *models_.at(c); }
  const lm::ActionLanguageModel& model(std::size_t c) const { return *models_.at(c); }

  // -- Degraded mode -------------------------------------------------------
  // Archive v2 stores each cluster's LSTM and a Markov-chain fallback in
  // independently CRC-checked sections. A corrupt LSTM section downgrades
  // that cluster to the Markov baseline at load instead of aborting the
  // process; verdicts from a degraded cluster are flagged (StepResult::
  // degraded, serve.degraded_clusters). The robust-ensemble fallback
  // follows Kim et al. (arXiv:1611.01726).

  /// True when cluster `c` is served by its Markov fallback.
  bool cluster_degraded(std::size_t c) const { return degraded_.at(c); }
  /// Cluster `c`'s persisted Markov fallback; nullptr on v1 archives.
  const lm::MarkovChainModel* fallback(std::size_t c) const { return fallbacks_.at(c).get(); }
  /// Number of degraded clusters (0 on a freshly trained detector).
  std::size_t degraded_cluster_count() const;

  // -- Streaming scoring ---------------------------------------------------
  // A healthy cluster streams through its model's step_batch
  // (nn/next_action_model.hpp), which runs the selected kernel table on
  // the paper shape; a degraded cluster through its Markov fallback.

  /// Streaming state of one cluster's behavior model: the model's layer
  /// states, empty in degraded mode (the fallback keeps no state).
  struct ClusterState {
    nn::ModelState nn;
    /// Set for every healthy cluster; nothing in the scoring path reads it.
    bool use_engine = false;
    void reset() { nn.reset(); }
  };
  ClusterState make_cluster_state(std::size_t c) const;
  /// Advances cluster `c`'s model with the observed action and writes the
  /// next-action distribution into `out` (the degraded-aware counterpart
  /// of model(c).step).
  void step_cluster_into(std::size_t c, ClusterState& state, int action,
                         std::vector<float>& out) const;
  /// Batched steps for one cluster: states[i] advances on actions[i] into
  /// *out[i], as one step_batch call of the cluster's model. Bit-identical
  /// to step_cluster_into row by row, in order.
  void step_cluster_batch(std::size_t c, std::span<ClusterState* const> states,
                          std::span<const int> actions,
                          std::span<std::vector<float>* const> out) const;
  /// Rows one step_cluster_batch pass of cluster `c` sweeps at once (the
  /// model's rows_per_pass()); 1 for degraded clusters.
  std::size_t cluster_rows_per_pass(std::size_t c) const;
  /// Fills `out` with the next-action distribution implied by the state's
  /// last advance (the model's head + softmax alone, bit-identical to what
  /// that advance wrote). Healthy clusters only.
  void materialize_cluster_dist(std::size_t c, const ClusterState& state,
                                std::vector<float>& out) const;

  const cluster::ClusterAssigner& assigner() const { return *assigner_; }
  const ActionVocab& vocab() const { return vocab_; }
  const DetectorConfig& config() const { return config_; }

  /// OC-SVM routing of a full session (argmax score — §III).
  std::size_t route(std::span<const int> actions) const;

  struct Prediction {
    std::size_t cluster = 0;
    nn::NextActionModel::SessionScore score;
  };
  /// Route + score: the paper's batch prediction path.
  Prediction predict(std::span<const int> actions) const;

  /// Scores a session under a *known* cluster's model (the oracle used by
  /// the Fig. 4/5 experiments where the true cluster is assumed known).
  nn::NextActionModel::SessionScore score_with_cluster(std::size_t c,
                                                       std::span<const int> actions) const;

  /// Per-action occurrence counts of the corpus the detector was trained
  /// on, summed over the per-cluster Markov fallbacks (whose transition
  /// counts reproduce the training distribution exactly). Empty when no
  /// fallbacks are available (v1 archives) — callers should treat that as
  /// "drift reference unavailable" rather than an error.
  std::vector<double> training_action_counts() const;

  /// Archive v3: header + vocab + clusters + assigner (covered by the
  /// whole-file CRC footer), then per cluster a length-prefixed,
  /// CRC-checked LSTM section, Markov-fallback section, and a quant
  /// marker byte, always written 0. Older writers could set the marker to
  /// 1 (int8) or 2 (fp16) and follow it with a CRC-checked quantized-
  /// weights section; load checks and discards that section (a CRC
  /// failure there counts as localized damage, not a load failure).
  /// v1 archives (no sections, no footer, no fallbacks) and v2 archives
  /// (no quant markers) still load. Load errors name the failing archive
  /// section ("vocab", "cluster 3 LSTM", ...).
  void save(BinaryWriter& w) const;
  static MisuseDetector load(BinaryReader& r);

  /// Opens and loads an archive from disk. Any failure — missing file,
  /// truncation, corruption — surfaces as a SerializeError whose message
  /// carries the file path and the failing section, so operators can tell
  /// *which* artifact is bad straight from the log line.
  static MisuseDetector load_file(const std::string& path);

 private:
  MisuseDetector() = default;

  DetectorConfig config_;
  ActionVocab vocab_;
  std::vector<ClusterInfo> clusters_;
  std::vector<ClusterTrainReport> reports_;
  std::vector<std::unique_ptr<lm::ActionLanguageModel>> models_;
  /// Per-cluster Markov baselines, fitted at train time and persisted so
  /// a corrupt LSTM section degrades to them at load. May hold nullptr
  /// entries for v1 archives (no fallback: corruption is fatal there).
  std::vector<std::unique_ptr<lm::MarkovChainModel>> fallbacks_;
  std::vector<bool> degraded_;
  std::unique_ptr<cluster::ClusterAssigner> assigner_;
};

/// Builds the label of a cluster from its most characteristic actions.
std::string label_cluster(const SessionStore& store, const std::vector<std::size_t>& members);

}  // namespace misuse::core
