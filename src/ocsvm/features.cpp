#include "ocsvm/features.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace misuse::ocsvm {

SessionFeaturizer::SessionFeaturizer(const FeaturizerConfig& config) : config_(config) {
  assert(config.vocab > 0);
}

std::size_t SessionFeaturizer::dim() const {
  return config_.vocab + (config_.length_feature_weight > 0.0 ? 1 : 0);
}

void SessionFeaturizer::from_counts(std::span<const std::uint32_t> actions,
                                    std::span<const std::size_t> counts, std::size_t length,
                                    SparseFeatures& out) const {
  assert(actions.size() == counts.size());
  double scale = 1.0;
  if (config_.normalize) {
    double norm_sq = 0.0;
    for (const std::size_t c : counts) norm_sq += static_cast<double>(c) * static_cast<double>(c);
    scale = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
  }
  out.index.assign(actions.begin(), actions.end());
  out.value.resize(actions.size());
  out.norm_sq = 0.0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const auto v = static_cast<float>(static_cast<double>(counts[k]) * scale);
    out.value[k] = v;
    out.norm_sq += static_cast<double>(v) * v;
  }
  if (config_.length_feature_weight > 0.0) {
    const auto v =
        static_cast<float>(config_.length_feature_weight * std::log1p(static_cast<double>(length)));
    out.index.push_back(static_cast<std::uint32_t>(config_.vocab));
    out.value.push_back(v);
    out.norm_sq += static_cast<double>(v) * v;
  }
}

SparseFeatures SessionFeaturizer::featurize_sparse(std::span<const int> actions) const {
  std::vector<std::uint32_t> sorted(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    assert(actions[i] >= 0 && static_cast<std::size_t>(actions[i]) < config_.vocab);
    sorted[i] = static_cast<std::uint32_t>(actions[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> distinct;
  std::vector<std::size_t> counts;
  for (const std::uint32_t a : sorted) {
    if (distinct.empty() || distinct.back() != a) {
      distinct.push_back(a);
      counts.push_back(0);
    }
    ++counts.back();
  }
  SparseFeatures out;
  from_counts(distinct, counts, actions.size(), out);
  return out;
}

std::vector<float> SessionFeaturizer::featurize(std::span<const int> actions) const {
  const SparseFeatures sparse = featurize_sparse(actions);
  std::vector<float> out(dim(), 0.0f);
  for (std::size_t k = 0; k < sparse.index.size(); ++k) out[sparse.index[k]] = sparse.value[k];
  return out;
}

SessionFeaturizer::Incremental::Incremental(const SessionFeaturizer& parent) : parent_(parent) {}

const SparseFeatures& SessionFeaturizer::Incremental::push(int action) {
  assert(action >= 0 && static_cast<std::size_t>(action) < parent_.config_.vocab);
  const auto a = static_cast<std::uint32_t>(action);
  const auto it = std::lower_bound(actions_.begin(), actions_.end(), a);
  const auto k = it - actions_.begin();
  if (it == actions_.end() || *it != a) {
    actions_.insert(it, a);
    counts_.insert(counts_.begin() + k, 0);
  }
  ++counts_[static_cast<std::size_t>(k)];
  ++length_;
  parent_.from_counts(actions_, counts_, length_, features_);
  return features_;
}

void SessionFeaturizer::Incremental::reset() {
  actions_.clear();
  counts_.clear();
  length_ = 0;
}

}  // namespace misuse::ocsvm
