// Session featurization for the one-class SVMs that route new sessions to
// behavior clusters (§II-III). A session (or a growing prefix of one, in
// the online regime of §IV-C) is embedded as its action histogram — raw
// counts by default, optionally L2-normalized — plus an optional coarse
// length feature: permutation-insensitive, cheap to update incrementally
// one action at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace misuse::ocsvm {

struct FeaturizerConfig {
  std::size_t vocab = 0;
  /// L2-normalize the action histogram. The default (false) keeps raw
  /// counts, which reproduces the OC-SVM behaviour the paper observed in
  /// Fig. 6: prefixes longer than the typical training session drift away
  /// from every support vector, so "all the sessions longer than the
  /// average length are considered to be outliers by all the OC-SVMs" —
  /// the very pathology the first-15-actions vote (§IV-C) works around.
  /// Set true for length-invariant routing instead.
  bool normalize = false;
  /// Weight of an appended log1p(length) feature; 0 disables it.
  double length_feature_weight = 0.0;
};

/// A feature vector in sparse form: its nonzero entries in ascending index
/// order (the length feature, when on, is always present as the last
/// index), plus its squared L2 norm summed in double in that order. With
/// raw counts and no length feature every value and the norm are
/// integers, so they are exact.
struct SparseFeatures {
  std::vector<std::uint32_t> index;
  std::vector<float> value;
  double norm_sq = 0.0;
};

class SessionFeaturizer {
 public:
  explicit SessionFeaturizer(const FeaturizerConfig& config);

  /// Feature dimensionality (vocab + 1 when the length feature is on).
  std::size_t dim() const;

  /// Featurizes a complete action sequence as a dense vector (the OC-SVM
  /// training input).
  std::vector<float> featurize(std::span<const int> actions) const;

  /// The same features in sparse form (the OC-SVM scoring input); its
  /// values equal the nonzero entries of featurize() bit for bit.
  SparseFeatures featurize_sparse(std::span<const int> actions) const;

  /// Incremental featurization for the online monitor: call on a prefix
  /// that grew by one action. State is proportional to the number of
  /// distinct actions seen, not to the vocabulary.
  class Incremental {
   public:
    explicit Incremental(const SessionFeaturizer& parent);
    /// Observes the next action and returns the features of the prefix,
    /// equal to featurize_sparse(prefix) bit for bit. The reference stays
    /// valid until the next push() or reset().
    const SparseFeatures& push(int action);
    std::size_t length() const { return length_; }
    void reset();

   private:
    const SessionFeaturizer& parent_;
    std::vector<std::uint32_t> actions_;  // distinct actions seen, ascending
    std::vector<std::size_t> counts_;     // occurrences of actions_[k]
    SparseFeatures features_;
    std::size_t length_ = 0;
  };

  const FeaturizerConfig& config() const { return config_; }

 private:
  /// Rebuilds `out` from the distinct actions of a prefix (ascending),
  /// their counts and the prefix length: the one place feature values and
  /// the norm are computed, shared by the batch and incremental paths.
  void from_counts(std::span<const std::uint32_t> actions, std::span<const std::size_t> counts,
                   std::size_t length, SparseFeatures& out) const;

  FeaturizerConfig config_;
};

}  // namespace misuse::ocsvm
