#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"

namespace misuse::nn {
namespace {

// Minimizes f(w) = 0.5 * ||w - target||^2 whose gradient is (w - target).
class Quadratic {
 public:
  explicit Quadratic(float target) : target_(target), param_("w", 2, 2) {
    param_.value.fill(10.0f);
    param_.zero_grad();  // a Parameter holds no gradient until then
  }

  void fill_grad() {
    for (std::size_t i = 0; i < param_.value.size(); ++i) {
      param_.grad.flat()[i] = param_.value.flat()[i] - target_;
    }
  }

  double loss() const {
    double sum = 0.0;
    for (float v : param_.value.flat()) sum += 0.5 * (v - target_) * (v - target_);
    return sum;
  }

  ParameterList params() { return {&param_}; }

 private:
  float target_;
  Parameter param_;
};

template <typename Opt>
double run_optimizer(Opt& opt, int steps, float target = 3.0f) {
  Quadratic q(target);
  for (int i = 0; i < steps; ++i) {
    q.fill_grad();
    opt.step(q.params());
  }
  return q.loss();
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  Sgd sgd(0.1f);
  EXPECT_LT(run_optimizer(sgd, 200), 1e-6);
}

TEST(Optimizer, SgdWithMomentumConverges) {
  Sgd sgd(0.05f, 0.9f);
  EXPECT_LT(run_optimizer(sgd, 300), 1e-4);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Adam adam(0.1f);
  EXPECT_LT(run_optimizer(adam, 500), 1e-4);
}

TEST(Optimizer, RmsPropConvergesOnQuadratic) {
  RmsProp rms(0.05f);
  EXPECT_LT(run_optimizer(rms, 500), 1e-3);
}

TEST(Optimizer, EachStepDecreasesQuadraticLoss) {
  Quadratic q(0.0f);
  Sgd sgd(0.1f);
  double prev = q.loss();
  for (int i = 0; i < 20; ++i) {
    q.fill_grad();
    sgd.step(q.params());
    const double cur = q.loss();
    ASSERT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Optimizer, LearningRateAccessors) {
  Adam adam(0.01f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.01f);
  adam.set_learning_rate(0.001f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.001f);
}

TEST(Optimizer, FactoryProducesWorkingOptimizers) {
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam, OptimizerKind::kRmsProp}) {
    auto opt = make_optimizer(kind, 0.05f);
    ASSERT_NE(opt, nullptr);
    EXPECT_LT(run_optimizer(*opt, 800), 1e-2);
  }
}

TEST(Optimizer, ParseNames) {
  EXPECT_EQ(parse_optimizer("adam"), OptimizerKind::kAdam);
  EXPECT_EQ(parse_optimizer("Adam"), OptimizerKind::kAdam);
  EXPECT_EQ(parse_optimizer("SGD"), OptimizerKind::kSgd);
  EXPECT_EQ(parse_optimizer("rmsprop"), OptimizerKind::kRmsProp);
  EXPECT_THROW(parse_optimizer("adagrad"), std::invalid_argument);
}

TEST(Parameter, CountAndZero) {
  Parameter a("a", 2, 3), b("b", 1, 4);
  const ParameterList params = {&a, &b};
  EXPECT_EQ(parameter_count(params), 10u);
  zero_grads(params);
  a.grad.fill(1.0f);
  b.grad.fill(2.0f);
  zero_grads(params);
  for (float g : a.grad.flat()) EXPECT_EQ(g, 0.0f);
  for (float g : b.grad.flat()) EXPECT_EQ(g, 0.0f);
}

TEST(Parameter, GradIsAllocatedByTheFirstZeroGrad) {
  Parameter p("p", 3, 2);
  EXPECT_EQ(p.grad.size(), 0u) << "a fresh Parameter holds no gradient";
  p.zero_grad();
  ASSERT_TRUE(p.grad.same_shape(p.value));
  for (float g : p.grad.flat()) EXPECT_EQ(g, 0.0f);
}

TEST(Parameter, ClipGradNormScalesDown) {
  Parameter p("p", 1, 4);
  p.grad = Matrix::from_rows(1, 4, {3, 4, 0, 0});  // norm 5
  const ParameterList params = {&p};
  const float pre = clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(std::sqrt(squared_norm(p.grad.flat())), 1.0f, 1e-5f);
  EXPECT_NEAR(p.grad(0, 0), 0.6f, 1e-5f);
}

TEST(Parameter, ClipGradNormLeavesSmallGradsAlone) {
  Parameter p("p", 1, 2);
  p.grad = Matrix::from_rows(1, 2, {0.3f, 0.4f});  // norm 0.5
  const float pre = clip_grad_norm({&p}, 1.0f);
  EXPECT_FLOAT_EQ(pre, 0.5f);
  EXPECT_FLOAT_EQ(p.grad(0, 0), 0.3f);
}

}  // namespace
}  // namespace misuse::nn
