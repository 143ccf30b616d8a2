#include "nn/optimizer.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace misuse::nn {

namespace {
void ensure_state(std::vector<Matrix>& state, const ParameterList& params) {
  if (state.size() == params.size()) return;
  assert(state.empty() && "parameter list changed between optimizer steps");
  state.reserve(params.size());
  for (const auto* p : params) state.emplace_back(p->value.rows(), p->value.cols());
}
}  // namespace

Sgd::Sgd(float lr, float momentum) : lr_(lr), momentum_(momentum) {
  assert(lr > 0.0f);
  assert(momentum >= 0.0f && momentum < 1.0f);
}

void Sgd::step(const ParameterList& params) {
  ensure_state(velocity_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& p = *params[i];
    assert(p.grad.same_shape(p.value) && "zero_grad() before the first backward");
    auto value = p.value.flat();
    auto grad = p.grad.flat();
    auto vel = velocity_[i].flat();
    for (std::size_t j = 0; j < value.size(); ++j) {
      vel[j] = momentum_ * vel[j] - lr_ * grad[j];
      value[j] += vel[j];
    }
  }
}

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  assert(lr > 0.0f);
}

void Adam::step(const ParameterList& params) {
  ensure_state(m_, params);
  ensure_state(v_, params);
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float alpha = lr_ * std::sqrt(bias2) / bias1;
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& p = *params[i];
    assert(p.grad.same_shape(p.value) && "zero_grad() before the first backward");
    auto value = p.value.flat();
    auto grad = p.grad.flat();
    auto m = m_[i].flat();
    auto v = v_[i].flat();
    for (std::size_t j = 0; j < value.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad[j] * grad[j];
      value[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps_);
    }
  }
}

RmsProp::RmsProp(float lr, float decay, float eps) : lr_(lr), decay_(decay), eps_(eps) {
  assert(lr > 0.0f);
}

void RmsProp::step(const ParameterList& params) {
  ensure_state(cache_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& p = *params[i];
    assert(p.grad.same_shape(p.value) && "zero_grad() before the first backward");
    auto value = p.value.flat();
    auto grad = p.grad.flat();
    auto cache = cache_[i].flat();
    for (std::size_t j = 0; j < value.size(); ++j) {
      cache[j] = decay_ * cache[j] + (1.0f - decay_) * grad[j] * grad[j];
      value[j] -= lr_ * grad[j] / (std::sqrt(cache[j]) + eps_);
    }
  }
}

std::unique_ptr<Optimizer> make_optimizer(OptimizerKind kind, float lr) {
  switch (kind) {
    case OptimizerKind::kSgd: return std::make_unique<Sgd>(lr, 0.9f);
    case OptimizerKind::kAdam: return std::make_unique<Adam>(lr);
    case OptimizerKind::kRmsProp: return std::make_unique<RmsProp>(lr);
  }
  throw std::invalid_argument("unknown optimizer kind");
}

OptimizerKind parse_optimizer(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "sgd") return OptimizerKind::kSgd;
  if (lower == "rmsprop") return OptimizerKind::kRmsProp;
  if (lower == "adam") return OptimizerKind::kAdam;
  throw std::invalid_argument("unknown optimizer name: " + name);
}

}  // namespace misuse::nn
