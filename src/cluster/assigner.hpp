// Cluster assignment service: one OC-SVM per behavior cluster; a session
// (or prefix) is routed to the cluster whose OC-SVM scores it highest
// (§III). Includes the paper's online fix (§IV-C): because OC-SVM scores
// collapse on sessions longer than the average, the cluster is voted on
// during the first `vote_actions` actions (15 = the dataset's average
// session length) and then frozen.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ocsvm/features.hpp"
#include "ocsvm/ocsvm.hpp"
#include "util/serialize.hpp"

namespace misuse::cluster {

struct AssignerConfig {
  ocsvm::OcSvmConfig svm;
  ocsvm::FeaturizerConfig features;
  /// Number of initial actions whose per-step votes decide the frozen
  /// cluster in the online regime.
  std::size_t vote_actions = 15;
};

class ClusterAssigner {
 public:
  /// Trains one OC-SVM per cluster. `cluster_sessions[c]` holds the
  /// action sequences of cluster c's training sessions.
  static ClusterAssigner train(
      const std::vector<std::vector<std::span<const int>>>& cluster_sessions,
      const AssignerConfig& config);

  /// Warm refit for continuous learning: clusters with at least
  /// `min_sessions` fresh sessions get a freshly trained OC-SVM (same
  /// per-cluster seed derivation as train(), so a refit is as
  /// deterministic as the original fit); clusters with too little recent
  /// data keep `parent`'s boundary verbatim. `cluster_sessions` must have
  /// one entry per parent cluster.
  static ClusterAssigner refit(
      const ClusterAssigner& parent,
      const std::vector<std::vector<std::span<const int>>>& cluster_sessions,
      std::size_t min_sessions);

  std::size_t cluster_count() const { return svms_.size(); }

  /// Scores of every cluster's OC-SVM on a full session.
  std::vector<double> scores(std::span<const int> actions) const;

  /// argmax-score cluster for a full session.
  std::size_t assign(std::span<const int> actions) const;

  /// Online scorer over a growing prefix. Tracks both the per-step argmax
  /// and the first-`vote_actions` majority vote.
  class OnlineAssignment {
   public:
    OnlineAssignment(const ClusterAssigner& parent);
    /// Observes the next action; returns the per-step scores.
    std::vector<double> push(int action);
    /// Cluster by the current step's argmax.
    std::size_t current_argmax() const { return current_argmax_; }
    /// Cluster by majority vote over the first `vote_actions` steps
    /// (falls back to current argmax before any step).
    std::size_t voted_cluster() const;
    /// True once voted_cluster() can no longer change: the first
    /// `vote_actions` steps have been observed. Never true when
    /// vote_actions is 0 (the vote then follows the argmax forever).
    bool vote_sealed() const {
      return parent_.config_.vote_actions > 0 && steps() >= parent_.config_.vote_actions;
    }
    std::size_t steps() const { return featurizer_state_.length(); }
    /// Clears all state for a new session.
    void reset();

   private:
    const ClusterAssigner& parent_;
    ocsvm::SessionFeaturizer::Incremental featurizer_state_;
    std::vector<std::size_t> votes_;
    std::size_t current_argmax_ = 0;
  };

  OnlineAssignment start_online() const { return OnlineAssignment(*this); }

  const AssignerConfig& config() const { return config_; }
  const ocsvm::OneClassSvm& svm(std::size_t c) const { return svms_.at(c); }

  void save(BinaryWriter& w) const;
  static ClusterAssigner load(BinaryReader& r);

 private:
  explicit ClusterAssigner(const AssignerConfig& config)
      : config_(config), featurizer_(config.features) {}

  AssignerConfig config_;
  ocsvm::SessionFeaturizer featurizer_;
  std::vector<ocsvm::OneClassSvm> svms_;
};

}  // namespace misuse::cluster
