#include "nn/infer/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "nn/infer/kernels.hpp"

namespace misuse::nn::infer {

namespace {

InferMode env_default_mode() {
  const char* env = std::getenv("MISUSEDET_INFER");
  if (env != nullptr) {
    if (const auto mode = parse_infer_mode(env)) return *mode;
  }
  return InferMode::kAuto;
}

std::atomic<InferMode>& mode_slot() {
  static std::atomic<InferMode> slot{env_default_mode()};
  return slot;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

std::optional<InferMode> parse_infer_mode(std::string_view name) {
  if (name == "auto") return InferMode::kAuto;
  if (name == "scalar") return InferMode::kScalar;
  if (name == "avx2") return InferMode::kAvx2;
  return std::nullopt;
}

const char* infer_mode_name(InferMode mode) {
  switch (mode) {
    case InferMode::kAuto: return "auto";
    case InferMode::kScalar: return "scalar";
    case InferMode::kAvx2: return "avx2";
  }
  return "?";
}

InferMode infer_mode() { return mode_slot().load(std::memory_order_relaxed); }

void set_infer_mode(InferMode mode) { mode_slot().store(mode, std::memory_order_relaxed); }

InferMode effective_infer_mode() {
  const InferMode mode = infer_mode();
  if (mode == InferMode::kAvx2 && !avx2_supported()) return InferMode::kScalar;
  if (mode != InferMode::kAuto) return mode;
  // auto = the fastest mode that keeps scoring bit-identical to the
  // layer-by-layer forward. That is the scalar table: the AVX2 kernels use
  // vectorized exp/tanh approximations (ULP-close, not equal), so they
  // stay strictly opt-in (--infer=avx2 / MISUSEDET_INFER=avx2) for
  // deployments that trade replay-exactness for throughput.
  return InferMode::kScalar;
}

bool avx2_supported() {
  static const bool supported = avx2_kernels() != nullptr && cpu_has_avx2();
  return supported;
}

const Kernels* selected_kernels() {
  return effective_infer_mode() == InferMode::kAvx2 ? avx2_kernels() : scalar_kernels();
}

}  // namespace misuse::nn::infer
