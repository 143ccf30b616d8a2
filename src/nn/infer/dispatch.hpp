// Runtime kernel selection for the streaming forward
// (NextActionModel::step_batch; kernel tables in nn/infer/kernels.hpp).
//
// Modes:
//   auto      — the fastest mode that preserves bit-identity with the
//               layer-by-layer forward; today that is the scalar table.
//   scalar    — the scalar kernels, bit-identical to the training-grade
//               layer-by-layer forward (nn/lstm.cpp, nn/dense.cpp).
//   avx2      — the vectorized kernels (ULP-close to scalar, not
//               bit-identical: the gate nonlinearities use a vectorized
//               exp approximation). Strictly opt-in; silently falls back
//               to scalar when not compiled in or unsupported by the CPU.
//
// Configured once per process via --infer / set_infer_mode(); the
// MISUSEDET_INFER environment variable seeds the default.
#pragma once

#include <optional>
#include <string_view>

namespace misuse::nn::infer {

enum class InferMode { kAuto, kScalar, kAvx2 };

/// "auto" | "scalar" | "avx2" -> mode; nullopt otherwise.
std::optional<InferMode> parse_infer_mode(std::string_view name);
const char* infer_mode_name(InferMode mode);

/// The configured mode (defaults to MISUSEDET_INFER, else auto).
InferMode infer_mode();
void set_infer_mode(InferMode mode);

/// The configured mode with kAuto resolved against this host.
InferMode effective_infer_mode();

/// AVX2 kernels are compiled in AND this CPU can run them (AVX2+FMA).
bool avx2_supported();

}  // namespace misuse::nn::infer
