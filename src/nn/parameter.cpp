#include "nn/parameter.hpp"

#include <cassert>
#include <cmath>

#include "tensor/ops.hpp"

namespace misuse::nn {

std::size_t parameter_count(const ParameterList& params) {
  std::size_t n = 0;
  for (const auto* p : params) n += p->value.size();
  return n;
}

void zero_grads(const ParameterList& params) {
  for (auto* p : params) p->zero_grad();
}

float clip_grad_norm(const ParameterList& params, float max_norm) {
  double total = 0.0;
  for (const auto* p : params) {
    assert(p->grad.same_shape(p->value) && "zero_grad() before the first backward");
    total += static_cast<double>(squared_norm(p->grad.flat()));
  }
  const auto norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float factor = max_norm / norm;
    for (auto* p : params) scale(p->grad.flat(), factor);
  }
  return norm;
}

}  // namespace misuse::nn
