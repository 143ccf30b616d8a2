#include "cluster/assigner.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace misuse::cluster {

ClusterAssigner ClusterAssigner::train(
    const std::vector<std::vector<std::span<const int>>>& cluster_sessions,
    const AssignerConfig& config) {
  assert(!cluster_sessions.empty());
  Span train_span("ocsvm.train");
  ClusterAssigner assigner(config);
  // Clusters are independent: each task featurizes and trains one OC-SVM
  // with a seed derived from the cluster index, then lands in its slot —
  // results match the serial loop bit for bit.
  std::vector<std::optional<ocsvm::OneClassSvm>> trained(cluster_sessions.size());
  global_pool().parallel_for(0, cluster_sessions.size(), [&](std::size_t c) {
    Span cluster_span("ocsvm.cluster_fit");
    assert(!cluster_sessions[c].empty());
    std::vector<std::vector<float>> features;
    features.reserve(cluster_sessions[c].size());
    for (const auto& actions : cluster_sessions[c]) {
      features.push_back(assigner.featurizer_.featurize(actions));
    }
    ocsvm::OcSvmConfig svm_config = config.svm;
    svm_config.seed = config.svm.seed + c;  // independent subsampling per cluster
    trained[c] = ocsvm::OneClassSvm::train(features, svm_config);
  });
  assigner.svms_.reserve(trained.size());
  for (auto& svm : trained) assigner.svms_.push_back(std::move(*svm));
  return assigner;
}

ClusterAssigner ClusterAssigner::refit(
    const ClusterAssigner& parent,
    const std::vector<std::vector<std::span<const int>>>& cluster_sessions,
    std::size_t min_sessions) {
  assert(cluster_sessions.size() == parent.cluster_count());
  Span refit_span("ocsvm.refit");
  ClusterAssigner assigner(parent.config_);
  std::vector<std::optional<ocsvm::OneClassSvm>> refitted(cluster_sessions.size());
  global_pool().parallel_for(0, cluster_sessions.size(), [&](std::size_t c) {
    if (cluster_sessions[c].size() < std::max<std::size_t>(1, min_sessions)) return;
    std::vector<std::vector<float>> features;
    features.reserve(cluster_sessions[c].size());
    for (const auto& actions : cluster_sessions[c]) {
      features.push_back(assigner.featurizer_.featurize(actions));
    }
    ocsvm::OcSvmConfig svm_config = parent.config_.svm;
    svm_config.seed = parent.config_.svm.seed + c;
    refitted[c] = ocsvm::OneClassSvm::train(features, svm_config);
  });
  assigner.svms_.reserve(refitted.size());
  for (std::size_t c = 0; c < refitted.size(); ++c) {
    assigner.svms_.push_back(refitted[c] ? std::move(*refitted[c]) : parent.svms_[c]);
  }
  return assigner;
}

std::vector<double> ClusterAssigner::scores(std::span<const int> actions) const {
  const ocsvm::SparseFeatures f = featurizer_.featurize_sparse(actions);
  std::vector<double> out(svms_.size());
  for (std::size_t c = 0; c < svms_.size(); ++c) out[c] = svms_[c].score(f);
  return out;
}

std::size_t ClusterAssigner::assign(std::span<const int> actions) const {
  const auto s = scores(actions);
  return static_cast<std::size_t>(std::max_element(s.begin(), s.end()) - s.begin());
}

ClusterAssigner::OnlineAssignment::OnlineAssignment(const ClusterAssigner& parent)
    : parent_(parent),
      featurizer_state_(parent.featurizer_),
      votes_(parent.cluster_count(), 0) {}

std::vector<double> ClusterAssigner::OnlineAssignment::push(int action) {
  const ocsvm::SparseFeatures& f = featurizer_state_.push(action);
  std::vector<double> scores(parent_.svms_.size());
  for (std::size_t c = 0; c < scores.size(); ++c) scores[c] = parent_.svms_[c].score(f);
  current_argmax_ =
      static_cast<std::size_t>(std::max_element(scores.begin(), scores.end()) - scores.begin());
  if (featurizer_state_.length() <= parent_.config_.vote_actions) {
    ++votes_[current_argmax_];
  }
  return scores;
}

void ClusterAssigner::OnlineAssignment::reset() {
  featurizer_state_.reset();
  std::fill(votes_.begin(), votes_.end(), std::size_t{0});
  current_argmax_ = 0;
}

std::size_t ClusterAssigner::OnlineAssignment::voted_cluster() const {
  // While the vote window is still open the cluster is "checked" per step
  // (§IV-C): follow the current argmax. Once the window closes, freeze on
  // the majority of the first `vote_actions` per-step assignments.
  if (featurizer_state_.length() < parent_.config_.vote_actions) return current_argmax_;
  const auto it = std::max_element(votes_.begin(), votes_.end());
  if (*it == 0) return current_argmax_;
  return static_cast<std::size_t>(it - votes_.begin());
}

namespace {
constexpr std::uint32_t kAssignerMagic = 0x4e475341u;  // "ASGN"
constexpr std::uint32_t kAssignerVersion = 1;
}  // namespace

void ClusterAssigner::save(BinaryWriter& w) const {
  w.write_magic(kAssignerMagic, kAssignerVersion);
  w.write<std::uint64_t>(config_.vote_actions);
  w.write<std::uint64_t>(config_.features.vocab);
  w.write<std::uint8_t>(config_.features.normalize ? 1 : 0);
  w.write<double>(config_.features.length_feature_weight);
  w.write<std::uint64_t>(svms_.size());
  for (const auto& svm : svms_) svm.save(w);
}

ClusterAssigner ClusterAssigner::load(BinaryReader& r) {
  r.read_magic(kAssignerMagic);
  AssignerConfig config;
  config.vote_actions = static_cast<std::size_t>(r.read<std::uint64_t>());
  config.features.vocab = static_cast<std::size_t>(r.read<std::uint64_t>());
  if (config.features.vocab == 0) throw SerializeError("assigner feature vocab is 0");
  config.features.normalize = r.read<std::uint8_t>() != 0;
  config.features.length_feature_weight = r.read<double>();
  ClusterAssigner assigner(config);
  const auto n = r.read<std::uint64_t>();
  if (n == 0) throw SerializeError("assigner has no OC-SVMs");
  // Scoring indexes every OC-SVM with featurizer indices, so a dim that
  // disagrees would read out of bounds.
  const std::size_t dim = assigner.featurizer_.dim();
  for (std::uint64_t i = 0; i < n; ++i) {
    assigner.svms_.push_back(ocsvm::OneClassSvm::load(r));
    if (assigner.svms_.back().dim() != dim) {
      throw SerializeError("OC-SVM " + std::to_string(i) + " dim " +
                           std::to_string(assigner.svms_.back().dim()) +
                           " differs from the featurizer dim " + std::to_string(dim));
    }
  }
  return assigner;
}

}  // namespace misuse::cluster
