#include "ocsvm/ocsvm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "ocsvm/features.hpp"
#include "util/rng.hpp"

namespace misuse::ocsvm {
namespace {

// Gaussian blob around a center in d dimensions.
std::vector<std::vector<float>> blob(std::size_t n, std::size_t dim, double center, double spread,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out(n, std::vector<float>(dim));
  for (auto& x : out) {
    for (auto& v : x) v = static_cast<float>(rng.normal(center, spread));
  }
  return out;
}

TEST(Kernel, LinearIsDotProduct) {
  const std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {4, 5, 6};
  EXPECT_NEAR(kernel_value(KernelKind::kLinear, 0.0, a, b), 32.0, 1e-9);
}

TEST(Kernel, RbfIsOneAtZeroDistance) {
  const std::vector<float> a = {1, 2};
  EXPECT_NEAR(kernel_value(KernelKind::kRbf, 0.5, a, a), 1.0, 1e-12);
}

TEST(Kernel, RbfDecaysWithDistance) {
  const std::vector<float> a = {0, 0};
  const std::vector<float> near = {0.1f, 0.0f};
  const std::vector<float> far = {3.0f, 3.0f};
  const double k_near = kernel_value(KernelKind::kRbf, 1.0, a, near);
  const double k_far = kernel_value(KernelKind::kRbf, 1.0, a, far);
  EXPECT_GT(k_near, k_far);
  EXPECT_GT(k_far, 0.0);
}

OcSvmConfig quick_config(double nu = 0.1) {
  OcSvmConfig config;
  config.nu = nu;
  config.gamma = 1.0;
  return config;
}

TEST(OcSvm, InliersScoreHigherThanOutliers) {
  const auto train = blob(120, 4, 0.0, 0.3, 1);
  const auto svm = OneClassSvm::train(train, quick_config());

  const auto inliers = blob(40, 4, 0.0, 0.3, 2);
  const auto outliers = blob(40, 4, 4.0, 0.3, 3);
  double inlier_mean = 0.0, outlier_mean = 0.0;
  for (const auto& x : inliers) inlier_mean += svm.score(x);
  for (const auto& x : outliers) outlier_mean += svm.score(x);
  inlier_mean /= 40.0;
  outlier_mean /= 40.0;
  EXPECT_GT(inlier_mean, outlier_mean);
  EXPECT_GT(inlier_mean, 0.0);
  EXPECT_LT(outlier_mean, 0.0);
}

TEST(OcSvm, NuPropertyBoundsTrainingOutliers) {
  for (const double nu : {0.05, 0.1, 0.25, 0.5}) {
    const auto train = blob(200, 3, 0.0, 0.5, 7);
    const auto svm = OneClassSvm::train(train, quick_config(nu));
    // The nu-property: the fraction of training outliers is at most ~nu
    // (allow slack for finite samples and solver tolerance).
    EXPECT_LE(svm.training_outlier_fraction(), nu + 0.08) << "nu=" << nu;
  }
}

TEST(OcSvm, HigherNuMeansMoreTrainingOutliers) {
  const auto train = blob(200, 3, 0.0, 0.5, 8);
  const auto tight = OneClassSvm::train(train, quick_config(0.02));
  const auto loose = OneClassSvm::train(train, quick_config(0.5));
  EXPECT_LE(tight.training_outlier_fraction(), loose.training_outlier_fraction() + 1e-9);
}

TEST(OcSvm, SupportVectorCountBounded) {
  const auto train = blob(150, 3, 0.0, 0.4, 9);
  const auto svm = OneClassSvm::train(train, quick_config(0.2));
  EXPECT_GT(svm.support_vector_count(), 0u);
  EXPECT_LE(svm.support_vector_count(), 150u);
}

TEST(OcSvm, AutoGammaDefaultsToInverseDim) {
  const auto train = blob(50, 8, 0.0, 0.5, 10);
  OcSvmConfig config;
  config.nu = 0.1;
  config.gamma = 0.0;  // auto
  const auto svm = OneClassSvm::train(train, config);
  EXPECT_EQ(svm.dim(), 8u);
  // No direct accessor for gamma; behaviorally: scoring must be finite.
  EXPECT_TRUE(std::isfinite(svm.score(train[0])));
}

TEST(OcSvm, SubsamplingKeepsTrainingTractable) {
  const auto train = blob(500, 3, 0.0, 0.4, 11);
  OcSvmConfig config = quick_config();
  config.max_training_points = 100;
  const auto svm = OneClassSvm::train(train, config);
  EXPECT_LE(svm.support_vector_count(), 100u);
  // Still a sane decision function.
  const auto far = blob(10, 3, 5.0, 0.1, 12);
  for (const auto& x : far) EXPECT_LT(svm.score(x), 0.0);
}

TEST(OcSvm, DeterministicForFixedSeed) {
  const auto train = blob(300, 3, 0.0, 0.4, 13);
  OcSvmConfig config = quick_config();
  config.max_training_points = 150;
  config.seed = 77;
  const auto a = OneClassSvm::train(train, config);
  const auto b = OneClassSvm::train(train, config);
  const auto probe = blob(5, 3, 1.0, 0.5, 14);
  for (const auto& x : probe) EXPECT_DOUBLE_EQ(a.score(x), b.score(x));
}

TEST(OcSvm, LinearKernelWorks) {
  auto train = blob(100, 2, 1.0, 0.2, 15);
  OcSvmConfig config;
  config.nu = 0.1;
  config.kernel = KernelKind::kLinear;
  const auto svm = OneClassSvm::train(train, config);
  // In-distribution point scores above a far-away one.
  const std::vector<float> in = {1.0f, 1.0f};
  const std::vector<float> out = {-3.0f, -3.0f};
  EXPECT_GT(svm.score(in), svm.score(out));
}

TEST(OcSvm, SaveLoadRoundTripsScores) {
  const auto train = blob(80, 4, 0.0, 0.4, 16);
  const auto svm = OneClassSvm::train(train, quick_config());
  std::stringstream buf;
  BinaryWriter w(buf);
  svm.save(w);
  BinaryReader r(buf);
  const auto loaded = OneClassSvm::load(r);
  const auto probe = blob(10, 4, 0.5, 0.5, 17);
  for (const auto& x : probe) EXPECT_EQ(svm.score(x), loaded.score(x));
  for (std::size_t i = 0; i < svm.support_vector_count(); ++i) {
    EXPECT_EQ(svm.support_vector(i), loaded.support_vector(i));
  }
}

TEST(Featurizer, HistogramIsL2Normalized) {
  SessionFeaturizer f({.vocab = 5, .normalize = true, .length_feature_weight = 0.0});
  const std::vector<int> actions = {0, 0, 1, 2};
  const auto x = f.featurize(actions);
  ASSERT_EQ(x.size(), 5u);
  double norm = 0.0;
  for (float v : x) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-6);
  EXPECT_GT(x[0], x[1]);  // action 0 appears twice
  EXPECT_FLOAT_EQ(x[3], 0.0f);
}

TEST(Featurizer, RawCountsByDefault) {
  SessionFeaturizer f({.vocab = 4});
  const std::vector<int> actions = {0, 0, 2, 0};
  const auto x = f.featurize(actions);
  ASSERT_EQ(x.size(), 4u);
  EXPECT_FLOAT_EQ(x[0], 3.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 1.0f);
}

TEST(Featurizer, RawCountsGrowWithPrefixLength) {
  // The property behind the paper's Fig. 6: long prefixes drift away from
  // typical (short) training sessions in raw-count space.
  SessionFeaturizer f({.vocab = 3});
  std::vector<int> prefix;
  double prev_norm = 0.0;
  for (int i = 0; i < 50; ++i) {
    prefix.push_back(i % 3);
    const auto x = f.featurize(prefix);
    double norm = 0.0;
    for (float v : x) norm += static_cast<double>(v) * v;
    EXPECT_GT(norm, prev_norm);
    prev_norm = norm;
  }
}

TEST(Featurizer, PermutationInvariant) {
  SessionFeaturizer f({.vocab = 6, .length_feature_weight = 0.1});
  const std::vector<int> a = {1, 2, 3, 1};
  const std::vector<int> b = {1, 1, 3, 2};
  EXPECT_EQ(f.featurize(a), f.featurize(b));
}

TEST(Featurizer, LengthFeatureAppendsDimension) {
  SessionFeaturizer with({.vocab = 4, .length_feature_weight = 0.1});
  SessionFeaturizer without({.vocab = 4, .length_feature_weight = 0.0});
  EXPECT_EQ(with.dim(), 5u);
  EXPECT_EQ(without.dim(), 4u);
  const std::vector<int> actions = {0, 1};
  EXPECT_NEAR(with.featurize(actions)[4], 0.1 * std::log1p(2.0), 1e-6);
}

TEST(Featurizer, EmptySessionIsZeroHistogram) {
  SessionFeaturizer f({.vocab = 3, .length_feature_weight = 0.0});
  const auto x = f.featurize(std::vector<int>{});
  for (float v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

// Every featurizer setting the assigner can be configured with.
const FeaturizerConfig kFeaturizerConfigs[] = {
    {.vocab = 6},
    {.vocab = 6, .normalize = true},
    {.vocab = 6, .length_feature_weight = 0.1},
    {.vocab = 6, .normalize = true, .length_feature_weight = 0.1},
};

void expect_same_features(const SparseFeatures& a, const SparseFeatures& b,
                          const std::string& where) {
  EXPECT_EQ(a.index, b.index) << where;
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.norm_sq, b.norm_sq) << where;
}

TEST(Featurizer, IncrementalMatchesBatch) {
  const std::vector<int> actions = {2, 4, 2, 0, 5, 1, 1, 4, 4, 3};
  for (const auto& config : kFeaturizerConfigs) {
    SessionFeaturizer f(config);
    auto inc = SessionFeaturizer::Incremental(f);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      const std::span<const int> prefix(actions.data(), i + 1);
      const std::string where = "normalize=" + std::to_string(config.normalize) +
                                " length_weight=" + std::to_string(config.length_feature_weight) +
                                " prefix " + std::to_string(i + 1);
      const SparseFeatures& streamed = inc.push(actions[i]);
      const SparseFeatures batch = f.featurize_sparse(prefix);
      expect_same_features(streamed, batch, where);

      // The sparse view is the dense featurization's nonzero entries, in
      // ascending index order, with its exact squared norm.
      const auto dense = f.featurize(prefix);
      ASSERT_EQ(streamed.index.size(), streamed.value.size()) << where;
      ASSERT_TRUE(std::is_sorted(streamed.index.begin(), streamed.index.end())) << where;
      std::vector<float> scattered(f.dim(), 0.0f);
      for (std::size_t k = 0; k < streamed.index.size(); ++k) {
        ASSERT_LT(streamed.index[k], f.dim()) << where;
        scattered[streamed.index[k]] = streamed.value[k];
      }
      EXPECT_EQ(scattered, dense) << where;
      double norm_sq = 0.0;
      for (const float v : dense) norm_sq += static_cast<double>(v) * v;
      EXPECT_EQ(streamed.norm_sq, norm_sq) << where;
    }
  }
}

TEST(Featurizer, IncrementalResetStartsOver) {
  SessionFeaturizer f({.vocab = 3, .length_feature_weight = 0.0});
  auto inc = SessionFeaturizer::Incremental(f);
  inc.push(0);
  inc.push(1);
  inc.reset();
  EXPECT_EQ(inc.length(), 0u);
  const SparseFeatures& x = inc.push(2);
  EXPECT_EQ(x.index, std::vector<std::uint32_t>{2});
  EXPECT_EQ(x.value, std::vector<float>{1.0f});
  EXPECT_EQ(x.norm_sq, 1.0);
}

// --- Sparse kernel against a dense reference ------------------------------

/// Random action sequence of 1-800 actions: short ones concentrate on a
/// few actions like real prefixes, long ones touch most of the vocabulary.
std::vector<int> random_session(Rng& rng, std::size_t vocab) {
  const std::size_t length = 1 + rng.uniform_index(800);
  const std::size_t support = 1 + rng.uniform_index(vocab);
  std::vector<int> actions(length);
  for (auto& a : actions) a = static_cast<int>(rng.uniform_index(support));
  return actions;
}

/// f(x) straight from the definition: sum_i a_i K(s_i, x) - rho over the
/// dense feature vector, one support vector at a time.
double dense_reference(const OneClassSvm& svm, std::span<const float> x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < svm.support_vector_count(); ++i) {
    acc += svm.alphas()[i] *
           kernel_value(svm.config().kernel, svm.gamma(), svm.support_vector(i), x);
  }
  return acc - svm.rho();
}

void check_kernel_against_reference(const FeaturizerConfig& features, KernelKind kernel,
                                    bool exact) {
  SessionFeaturizer f(features);
  Rng rng(101);
  std::vector<std::vector<float>> train;
  for (int i = 0; i < 150; ++i) train.push_back(f.featurize(random_session(rng, features.vocab)));
  OcSvmConfig config;
  config.kernel = kernel;
  const auto svm = OneClassSvm::train(train, config);
  ASSERT_GT(svm.support_vector_count(), 0u);
  std::size_t informative = 0;  // probes whose kernel sum is not ~0
  for (int i = 0; i < 200; ++i) {
    const auto actions = random_session(rng, features.vocab);
    const double want = dense_reference(svm, f.featurize(actions));
    if (std::abs(want + svm.rho()) > 1e-3) ++informative;
    const double got = svm.score(f.featurize_sparse(actions));
    const double dense_adapter = svm.score(std::span<const float>(f.featurize(actions)));
    EXPECT_EQ(got, dense_adapter) << "session " << i;
    if (exact) {
      EXPECT_EQ(got, want) << "session " << i << " of " << actions.size() << " actions";
    } else {
      EXPECT_NEAR(got, want, 1e-12) << "session " << i << " of " << actions.size() << " actions";
    }
  }
  EXPECT_GT(informative, 100u);
}

TEST(SparseKernel, RbfRawCountsEqualDenseReferenceBitForBit) {
  check_kernel_against_reference({.vocab = 300}, KernelKind::kRbf, true);
}

TEST(SparseKernel, LinearRawCountsEqualDenseReferenceBitForBit) {
  check_kernel_against_reference({.vocab = 300}, KernelKind::kLinear, true);
}

TEST(SparseKernel, NormalizedAndLengthFeatureWithinRounding) {
  // Away from integers ||s||^2 - 2 s.x + ||x||^2 rounds differently from
  // the sum of squared differences, so these agree to 1e-12, not exactly.
  for (const KernelKind kernel : {KernelKind::kRbf, KernelKind::kLinear}) {
    check_kernel_against_reference({.vocab = 300, .normalize = true}, kernel, false);
    check_kernel_against_reference({.vocab = 300, .length_feature_weight = 0.1}, kernel, false);
    check_kernel_against_reference(
        {.vocab = 300, .normalize = true, .length_feature_weight = 0.1}, kernel, false);
  }
}

TEST(SparseKernel, ManySupportVectorsSpanSeveralBlocks) {
  // More support vectors than one stack block of dot products holds.
  SessionFeaturizer f({.vocab = 40});
  Rng rng(102);
  std::vector<std::vector<float>> train;
  for (int i = 0; i < 700; ++i) train.push_back(f.featurize(random_session(rng, 40)));
  OcSvmConfig config;
  config.nu = 0.9;
  const auto svm = OneClassSvm::train(train, config);
  ASSERT_GT(svm.support_vector_count(), 600u);
  for (int i = 0; i < 20; ++i) {
    const auto actions = random_session(rng, 40);
    EXPECT_EQ(svm.score(f.featurize_sparse(actions)), dense_reference(svm, f.featurize(actions)));
  }
}

// --- Hand-written OC-SVM sections ----------------------------------------

struct SvmBytes {
  std::int32_t kernel = static_cast<std::int32_t>(KernelKind::kRbf);
  double gamma = 0.5;
  double rho = 0.25;
  std::uint64_t dim = 3;
  std::vector<std::vector<float>> support = {{1, 0, 2}, {0, 1, 0}};
  std::vector<double> alphas = {0.75, 0.25};

  std::string bytes() const {
    std::ostringstream out(std::ios::binary);
    BinaryWriter w(out);
    w.write_magic(0x4d56534fu, 1);  // "OSVM"
    w.write<std::int32_t>(kernel);
    w.write<double>(0.1);  // nu
    w.write<double>(gamma);
    w.write<double>(rho);
    w.write<double>(0.0);  // training outlier fraction
    w.write<std::uint64_t>(dim);
    w.write<std::uint64_t>(support.size());
    for (const auto& sv : support) w.write_vector(sv);
    w.write_vector(alphas);
    return out.str();
  }
};

OneClassSvm load_svm(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader r(in);
  return OneClassSvm::load(r);
}

TEST(OcSvmLoad, HandWrittenSectionScoresByDefinition) {
  const SvmBytes svm_bytes;
  const auto svm = load_svm(svm_bytes.bytes());
  ASSERT_EQ(svm.support_vector_count(), 2u);
  EXPECT_EQ(svm.support_vector(0), svm_bytes.support[0]);
  EXPECT_EQ(svm.support_vector(1), svm_bytes.support[1]);
  const std::vector<float> x = {1, 1, 0};
  // ||s0 - x||^2 = 0 + 1 + 4 = 5; ||s1 - x||^2 = 1.
  const double want = 0.75 * std::exp(-0.5 * 5.0) + 0.25 * std::exp(-0.5 * 1.0) - 0.25;
  EXPECT_EQ(svm.score(std::span<const float>(x)), want);
  // Saving writes back the very bytes that were loaded.
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  svm.save(w);
  EXPECT_EQ(out.str(), svm_bytes.bytes());
}

TEST(OcSvmLoad, RejectsUnknownKernelKind) {
  SvmBytes svm_bytes;
  svm_bytes.kernel = 7;
  EXPECT_THROW((void)load_svm(svm_bytes.bytes()), SerializeError);
}

TEST(OcSvmLoad, RejectsNonFiniteOrNonPositiveRbfGamma) {
  for (const double gamma : {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    SvmBytes svm_bytes;
    svm_bytes.gamma = gamma;
    EXPECT_THROW((void)load_svm(svm_bytes.bytes()), SerializeError) << "gamma=" << gamma;
  }
  // A linear kernel never reads gamma.
  SvmBytes linear;
  linear.kernel = static_cast<std::int32_t>(KernelKind::kLinear);
  linear.gamma = 0.0;
  EXPECT_NO_THROW((void)load_svm(linear.bytes()));
}

TEST(OcSvmLoad, RejectsNonFiniteRhoOrAlpha) {
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    SvmBytes rho;
    rho.rho = bad;
    EXPECT_THROW((void)load_svm(rho.bytes()), SerializeError);
    SvmBytes alpha;
    alpha.alphas[1] = -bad;
    EXPECT_THROW((void)load_svm(alpha.bytes()), SerializeError);
  }
}

TEST(OcSvmLoad, RejectsSupportVectorOfWrongDim) {
  SvmBytes svm_bytes;
  svm_bytes.support[1].push_back(3.0f);
  EXPECT_THROW((void)load_svm(svm_bytes.bytes()), SerializeError);
  SvmBytes count;
  count.alphas.pop_back();
  EXPECT_THROW((void)load_svm(count.bytes()), SerializeError);
}

}  // namespace
}  // namespace misuse::ocsvm
