#include "ocsvm/ocsvm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace misuse::ocsvm {
namespace {

/// acc + a * b, rounded once where the target has FMA: what the compiler
/// makes of the scalar expression, pinned so that a vectorized reduction
/// cannot round the product on its own and change the sum.
double multiply_add(double a, double b, double acc) {
#ifdef __FMA__
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

}  // namespace

double kernel_value(KernelKind kind, double gamma, std::span<const float> a,
                    std::span<const float> b) {
  assert(a.size() == b.size());
  switch (kind) {
    case KernelKind::kLinear: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += static_cast<double>(a[i]) * b[i];
      return dot;
    }
    case KernelKind::kRbf: {
      double sq = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        sq += d * d;
      }
      return std::exp(-gamma * sq);
    }
  }
  assert(false);
  return 0.0;
}

OneClassSvm OneClassSvm::train(const std::vector<std::vector<float>>& points,
                               const OcSvmConfig& config) {
  assert(!points.empty());
  assert(config.nu > 0.0 && config.nu <= 1.0);
  OneClassSvm svm;
  svm.config_ = config;
  svm.dim_ = points.front().size();
  svm.gamma_ = config.gamma > 0.0 ? config.gamma : 1.0 / static_cast<double>(svm.dim_);

  // Subsample oversized training sets so the dense kernel matrix stays
  // tractable; points are drawn without replacement.
  std::vector<std::size_t> chosen(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) chosen[i] = i;
  if (config.max_training_points > 0 && points.size() > config.max_training_points) {
    Rng rng(config.seed);
    rng.shuffle(chosen);
    chosen.resize(config.max_training_points);
  }
  const std::size_t m = chosen.size();
  std::vector<std::span<const float>> x(m);
  for (std::size_t i = 0; i < m; ++i) {
    assert(points[chosen[i]].size() == svm.dim_);
    x[i] = points[chosen[i]];
  }

  // Dense kernel matrix (float to halve memory; the SMO arithmetic below
  // is double).
  std::vector<float> kernel(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      const auto v = static_cast<float>(kernel_value(config.kernel, svm.gamma_, x[i], x[j]));
      kernel[i * m + j] = v;
      kernel[j * m + i] = v;
    }
  }
  const auto k_at = [&](std::size_t i, std::size_t j) {
    return static_cast<double>(kernel[i * m + j]);
  };

  // Feasible start: alpha uniform on the first ceil(nu*m) points, as in
  // libsvm's one-class initialization.
  const double upper = 1.0 / (config.nu * static_cast<double>(m));
  std::vector<double> alpha(m, 0.0);
  {
    double remaining = 1.0;
    for (std::size_t i = 0; i < m && remaining > 0.0; ++i) {
      const double take = std::min(upper, remaining);
      alpha[i] = take;
      remaining -= take;
    }
  }

  // Gradient of 1/2 a^T K a is g = K a.
  std::vector<double> grad(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (alpha[j] > 0.0) acc += alpha[j] * k_at(i, j);
    }
    grad[i] = acc;
  }

  // SMO with maximal-violating-pair selection: move weight from the
  // highest-gradient index that can decrease (alpha > 0) to the
  // lowest-gradient index that can increase (alpha < upper).
  const double eps_box = upper * 1e-12;
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    std::size_t i_up = m, i_down = m;
    double g_min = std::numeric_limits<double>::infinity();
    double g_max = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (alpha[i] < upper - eps_box && grad[i] < g_min) {
        g_min = grad[i];
        i_up = i;
      }
      if (alpha[i] > eps_box && grad[i] > g_max) {
        g_max = grad[i];
        i_down = i;
      }
    }
    if (i_up == m || i_down == m || g_max - g_min < config.tolerance) break;

    // Optimal unconstrained step along e_up - e_down.
    const double curvature =
        std::max(k_at(i_up, i_up) + k_at(i_down, i_down) - 2.0 * k_at(i_up, i_down), 1e-12);
    double delta = (g_max - g_min) / curvature;
    delta = std::min(delta, upper - alpha[i_up]);
    delta = std::min(delta, alpha[i_down]);
    if (delta <= 0.0) break;

    alpha[i_up] += delta;
    alpha[i_down] -= delta;
    for (std::size_t j = 0; j < m; ++j) {
      grad[j] += delta * (k_at(i_up, j) - k_at(i_down, j));
    }
  }

  // rho = decision threshold: average gradient over free support vectors
  // (0 < alpha < upper); fall back to the mean over all support vectors.
  double rho_sum = 0.0;
  std::size_t rho_count = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (alpha[i] > eps_box && alpha[i] < upper - eps_box) {
      rho_sum += grad[i];
      ++rho_count;
    }
  }
  if (rho_count == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      if (alpha[i] > eps_box) {
        rho_sum += grad[i];
        ++rho_count;
      }
    }
  }
  svm.rho_ = rho_count > 0 ? rho_sum / static_cast<double>(rho_count) : 0.0;

  // Keep only support vectors.
  std::vector<std::span<const float>> support;
  for (std::size_t i = 0; i < m; ++i) {
    if (alpha[i] > eps_box) {
      support.push_back(x[i]);
      svm.alphas_.push_back(alpha[i]);
    }
  }
  svm.set_support_vectors(support);

  // Count decision values below zero by more than the solver tolerance;
  // points within tolerance of the boundary are margin noise, not
  // outliers (the nu-property is stated at the exact optimum).
  std::size_t outliers = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (grad[i] - svm.rho_ < -config.tolerance) ++outliers;
  }
  svm.training_outlier_fraction_ = static_cast<double>(outliers) / static_cast<double>(m);
  return svm;
}

void OneClassSvm::set_support_vectors(const std::vector<std::span<const float>>& support) {
  const std::size_t n_sv = support.size();
  sv_by_feature_.assign(dim_ * n_sv, 0.0f);
  sv_norm_sq_.assign(n_sv, 0.0);
  for (std::size_t i = 0; i < n_sv; ++i) {
    assert(support[i].size() == dim_);
    for (std::size_t j = 0; j < dim_; ++j) {
      const float v = support[i][j];
      sv_by_feature_[j * n_sv + i] = v;
      sv_norm_sq_[i] += static_cast<double>(v) * v;
    }
  }
}

std::vector<float> OneClassSvm::support_vector(std::size_t i) const {
  const std::size_t n_sv = alphas_.size();
  assert(i < n_sv);
  std::vector<float> out(dim_);
  for (std::size_t j = 0; j < dim_; ++j) out[j] = sv_by_feature_[j * n_sv + i];
  return out;
}

double OneClassSvm::score(const SparseFeatures& x) const {
  assert(x.index.size() == x.value.size());
  // Hot path of online routing: every monitor step scores every cluster's
  // OC-SVM on the prefix, which has touched a handful of actions. s.x is
  // one contiguous axpy per nonzero feature over the feature-major store;
  // ||s - x||^2 = ||s||^2 - 2 s.x + ||x||^2 then needs no pass over the
  // other dimensions. With raw counts every term is an integer below
  // 2^53, so the distance is exact and equals the dense sum of squared
  // differences bit for bit. Support vectors go in blocks so the dot
  // products stay on the stack; the exp terms are summed in support-vector
  // order, which the offline and online assigners share.
  constexpr std::size_t kBlock = 256;
  const std::size_t n_sv = alphas_.size();
  double dot[kBlock];
  double acc = 0.0;
  for (std::size_t base = 0; base < n_sv; base += kBlock) {
    const std::size_t n = std::min(kBlock, n_sv - base);
    std::fill_n(dot, n, 0.0);
    for (std::size_t k = 0; k < x.index.size(); ++k) {
      assert(x.index[k] < dim_);
      const double v = x.value[k];
      const float* row = sv_by_feature_.data() + x.index[k] * n_sv + base;
      for (std::size_t i = 0; i < n; ++i) dot[i] += v * static_cast<double>(row[i]);
    }
    if (config_.kernel == KernelKind::kRbf) {
      for (std::size_t i = 0; i < n; ++i) {
        // Rounding can take a non-integer distance a hair below zero.
        const double sq = std::max(0.0, sv_norm_sq_[base + i] - 2.0 * dot[i] + x.norm_sq);
        acc = multiply_add(alphas_[base + i], std::exp(-gamma_ * sq), acc);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) acc = multiply_add(alphas_[base + i], dot[i], acc);
    }
  }
  return acc - rho_;
}

double OneClassSvm::score(std::span<const float> x) const {
  assert(x.size() == dim_);
  SparseFeatures sparse;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] == 0.0f) continue;
    sparse.index.push_back(static_cast<std::uint32_t>(j));
    sparse.value.push_back(x[j]);
    sparse.norm_sq += static_cast<double>(x[j]) * x[j];
  }
  return score(sparse);
}

namespace {
constexpr std::uint32_t kSvmMagic = 0x4d56534fu;  // "OSVM"
constexpr std::uint32_t kSvmVersion = 1;
}  // namespace

void OneClassSvm::save(BinaryWriter& w) const {
  w.write_magic(kSvmMagic, kSvmVersion);
  w.write<std::int32_t>(static_cast<std::int32_t>(config_.kernel));
  w.write<double>(config_.nu);
  w.write<double>(gamma_);
  w.write<double>(rho_);
  w.write<double>(training_outlier_fraction_);
  w.write<std::uint64_t>(dim_);
  w.write<std::uint64_t>(alphas_.size());
  for (std::size_t i = 0; i < alphas_.size(); ++i) w.write_vector(support_vector(i));
  w.write_vector(std::span<const double>(alphas_));
}

OneClassSvm OneClassSvm::load(BinaryReader& r) {
  r.read_magic(kSvmMagic);
  OneClassSvm svm;
  const auto kernel = r.read<std::int32_t>();
  if (kernel != static_cast<std::int32_t>(KernelKind::kRbf) &&
      kernel != static_cast<std::int32_t>(KernelKind::kLinear)) {
    throw SerializeError("unknown OC-SVM kernel kind " + std::to_string(kernel));
  }
  svm.config_.kernel = static_cast<KernelKind>(kernel);
  svm.config_.nu = r.read<double>();
  svm.gamma_ = r.read<double>();
  if (svm.config_.kernel == KernelKind::kRbf && !(std::isfinite(svm.gamma_) && svm.gamma_ > 0.0)) {
    throw SerializeError("OC-SVM RBF gamma " + std::to_string(svm.gamma_) +
                         " is not finite and positive");
  }
  svm.rho_ = r.read<double>();
  if (!std::isfinite(svm.rho_)) throw SerializeError("OC-SVM rho is not finite");
  svm.training_outlier_fraction_ = r.read<double>();
  svm.dim_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  const auto n_sv = r.read<std::uint64_t>();
  // The count is untrusted: no reserve; a short stream throws on the read.
  std::vector<std::vector<float>> support;
  for (std::uint64_t i = 0; i < n_sv; ++i) {
    support.push_back(r.read_vector<float>());
    if (support.back().size() != svm.dim_) throw SerializeError("support vector dim mismatch");
  }
  svm.alphas_ = r.read_vector<double>();
  if (svm.alphas_.size() != support.size()) {
    throw SerializeError("alpha/support-vector count mismatch");
  }
  for (const double a : svm.alphas_) {
    if (!std::isfinite(a)) throw SerializeError("OC-SVM alpha is not finite");
  }
  svm.set_support_vectors(std::vector<std::span<const float>>(support.begin(), support.end()));
  return svm;
}

}  // namespace misuse::ocsvm
