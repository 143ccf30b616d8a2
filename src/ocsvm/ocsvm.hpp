// One-class support vector machine (Schölkopf et al. 2000, the paper's
// reference [26]) trained by sequential minimal optimization on the ν-SVM
// dual:
//
//   min_a  1/2 a^T K a   s.t.  0 <= a_i <= 1/(nu*m),  sum a_i = 1
//
// The decision function f(x) = sum_i a_i K(x_i, x) - rho scores how well
// x conforms to the training cluster; the pipeline trains one OC-SVM per
// behavior cluster and routes a new session to argmax_i f_i(x) (§III).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ocsvm/features.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::ocsvm {

enum class KernelKind : int { kRbf = 0, kLinear = 1 };

struct OcSvmConfig {
  double nu = 0.1;      // upper bound on the training outlier fraction
  KernelKind kernel = KernelKind::kRbf;
  /// RBF bandwidth; <= 0 selects 1/dim automatically.
  double gamma = 0.0;
  double tolerance = 1e-4;
  std::size_t max_iterations = 200000;
  /// Training sets larger than this are subsampled (keeps the kernel
  /// matrix tractable); 0 disables subsampling.
  std::size_t max_training_points = 2000;
  std::uint64_t seed = 5;
};

double kernel_value(KernelKind kind, double gamma, std::span<const float> a,
                    std::span<const float> b);

class OneClassSvm {
 public:
  /// Trains on rows of `points` (all must share one dimensionality).
  static OneClassSvm train(const std::vector<std::vector<float>>& points,
                           const OcSvmConfig& config);

  /// Decision value f(x); >= 0 means the point conforms to the cluster.
  /// Costs O(nnz(x) * support_vector_count()) multiply-adds plus one exp
  /// per support vector (RBF). Every index of `x` must be below dim().
  double score(const SparseFeatures& x) const;
  /// Dense adapter: scores the nonzero entries of `x` (size dim()) through
  /// the sparse kernel above.
  double score(std::span<const float> x) const;

  double rho() const { return rho_; }
  /// RBF bandwidth in use (the configured one, or 1/dim when automatic).
  double gamma() const { return gamma_; }
  std::size_t support_vector_count() const { return alphas_.size(); }
  /// Support vector i, gathered from the feature-major store.
  std::vector<float> support_vector(std::size_t i) const;
  std::span<const double> alphas() const { return alphas_; }
  std::size_t dim() const { return dim_; }
  const OcSvmConfig& config() const { return config_; }

  /// Fraction of the (possibly subsampled) training points with f(x) < 0;
  /// the nu-property guarantees this is at most about nu.
  double training_outlier_fraction() const { return training_outlier_fraction_; }

  void save(BinaryWriter& w) const;
  /// Throws SerializeError on a malformed or inconsistent section: unknown
  /// kernel, non-finite or non-positive RBF gamma, non-finite rho or
  /// alpha, or a support vector whose size is not dim.
  static OneClassSvm load(BinaryReader& r);

 private:
  OneClassSvm() = default;

  /// Stores `support` feature-major and computes each vector's squared
  /// norm; the one path train() and load() share.
  void set_support_vectors(const std::vector<std::span<const float>>& support);

  OcSvmConfig config_;
  std::size_t dim_ = 0;
  double gamma_ = 0.0;
  double rho_ = 0.0;
  double training_outlier_fraction_ = 0.0;
  /// sv_by_feature_[j * support_vector_count() + i] is feature j of
  /// support vector i: each nonzero input feature reads one contiguous row.
  std::vector<float> sv_by_feature_;
  std::vector<double> sv_norm_sq_;  // ||s_i||^2, summed in double in feature order
  std::vector<double> alphas_;
};

}  // namespace misuse::ocsvm
