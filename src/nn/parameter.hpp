// A trainable tensor: value + gradient accumulator. Layers expose their
// parameters as a flat list so optimizers and the gradient checker can
// treat any model uniformly. The gradient is allocated by the first
// zero_grad(), so a model that is only loaded and scored holds none.
#pragma once

#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace misuse::nn {

struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;  // empty until the first zero_grad()

  Parameter() = default;
  Parameter(std::string n, std::size_t rows, std::size_t cols)
      : name(std::move(n)), value(rows, cols) {}

  /// Zeroes the gradient, giving it value's shape on first use.
  void zero_grad() {
    if (grad.same_shape(value)) {
      grad.zero();
    } else {
      grad.resize(value.rows(), value.cols());
    }
  }
};

using ParameterList = std::vector<Parameter*>;

/// Total number of scalar parameters.
std::size_t parameter_count(const ParameterList& params);

/// Zeroes every gradient (allocating it on first use).
void zero_grads(const ParameterList& params);

/// Global-norm gradient clipping (as used to stabilize LSTM training);
/// returns the pre-clip norm.
float clip_grad_norm(const ParameterList& params, float max_norm);

}  // namespace misuse::nn
