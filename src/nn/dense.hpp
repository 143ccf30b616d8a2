// Fully connected layer: Y = X * W + b. Final projection from LSTM
// hidden state to the action-vocabulary logits in the paper architecture.
#pragma once

#include "nn/parameter.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::nn {

class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng);
  Dense(std::size_t in_dim, std::size_t out_dim);

  std::size_t in_dim() const { return w_.value.rows(); }
  std::size_t out_dim() const { return w_.value.cols(); }

  ParameterList params();

  /// y (N x out) = x (N x in) * W + b. Stores x for backward.
  void forward(const Matrix& x, Matrix& y);

  /// Inference-only forward (no activation recording).
  void infer(const Matrix& x, Matrix& y) const;

  /// Given dL/dy, accumulates dW/db and writes dL/dx.
  void backward(const Matrix& d_y, Matrix& d_x);

  void save(BinaryWriter& w) const;
  static Dense load(BinaryReader& r);

  /// Read-only weight views, which the streaming forward's kernels read
  /// in place (nn/infer/kernels.hpp): W is (in x out), bias (1 x out).
  const Matrix& weights() const { return w_.value; }
  const Matrix& bias() const { return b_.value; }

 private:
  Parameter w_;
  Parameter b_;
  Matrix last_input_;
};

}  // namespace misuse::nn
