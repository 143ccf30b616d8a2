// AVX2/FMA kernel table for the streaming forward. This TU is the only
// one compiled with -mavx2 -mfma (see src/nn/CMakeLists.txt,
// MISUSE_SIMD); everything it exports is reached through the runtime
// dispatch in nn/infer/dispatch.cpp, which checks CPU support first.
//
// These kernels are ULP-close to the scalar table, not bit-identical:
// every multiply-add is one fused FMA and the gate nonlinearities run on
// a vectorized exp polynomial (Cephes-style, as in avx_mathfun) instead
// of libm. tests/test_infer.cpp pins the divergence with a per-step ULP
// bound.
//
// Both matrix-vector products read the model's layer layouts in
// place (wh: H x 4H, head_w: H x V) by broadcast-FMA: each output
// element is one FMA chain over p ascending, seeded with its bias. The
// batch kernels build every element with that same chain whether the
// row lands in a multi-session tile or in the one-row pass (the tiles
// hand their last < 16 columns to the one-row masked pass), so a batch
// of any size equals one-row steps bit for bit; a one-row step is the
// n = 1 case.
#include "nn/infer/kernels.hpp"

#if defined(MISUSEDET_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "nn/gate_math.hpp"
#include "nn/lstm.hpp"

namespace misuse::nn::infer {

namespace {

// Vectorized exp (Cephes expf port, as in avx_mathfun): range-reduced
// polynomial, ~1 ulp relative error inside the clamp range.
inline __m256 exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, one));
  __m256i pow2 = _mm256_cvttps_epi32(fx);
  pow2 = _mm256_add_epi32(pow2, _mm256_set1_epi32(0x7f));
  pow2 = _mm256_slli_epi32(pow2, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

inline __m256 sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 tanh256(__m256 x) {
  // tanh(x) = (e^{2x} - 1) / (e^{2x} + 1); exp's clamp keeps the ratio
  // finite and saturating at +/-1.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e2x = exp256(_mm256_add_ps(x, x));
  return _mm256_div_ps(_mm256_sub_ps(e2x, one), _mm256_add_ps(e2x, one));
}

inline const float* wx_row(const LstmWeights& w, int token) {
  return token == kPadToken ? nullptr : w.wx + static_cast<std::size_t>(token) * 4 * w.hidden;
}

template <bool Masked>
inline __m256 load_cols(const float* at, __m256i mask) {
  if constexpr (Masked) {
    return _mm256_maskload_ps(at, mask);
  } else {
    return _mm256_loadu_ps(at);
  }
}

// One register-blocked pass over the output columns [j0, j0 + 8 NV) of
// one session: `row[j] += x[p] * m(p, j)` for p ascending, with the NV
// accumulators pinned in ymm registers — pure broadcast-FMA streams, no
// horizontal reductions. With Masked, the last vector covers only the
// lanes `mask` selects; the columns past the matrix edge are never read
// or written.
template <int NV, bool Masked>
inline void accum_pass(const float* m, std::size_t cols, std::size_t j0, const float* x,
                       std::size_t len, float* row, __m256i mask) {
  __m256 acc[NV];
  for (int b = 0; b < NV - 1; ++b) acc[b] = _mm256_loadu_ps(row + j0 + 8 * b);
  acc[NV - 1] = load_cols<Masked>(row + j0 + 8 * (NV - 1), mask);
  for (std::size_t p = 0; p < len; ++p) {
    const __m256 xp = _mm256_set1_ps(x[p]);
    const float* wrow = m + p * cols + j0;
    for (int b = 0; b < NV - 1; ++b) {
      acc[b] = _mm256_fmadd_ps(xp, _mm256_loadu_ps(wrow + 8 * b), acc[b]);
    }
    acc[NV - 1] = _mm256_fmadd_ps(xp, load_cols<Masked>(wrow + 8 * (NV - 1), mask), acc[NV - 1]);
  }
  for (int b = 0; b < NV - 1; ++b) _mm256_storeu_ps(row + j0 + 8 * b, acc[b]);
  if constexpr (Masked) {
    _mm256_maskstore_ps(row + j0 + 8 * (NV - 1), mask, acc[NV - 1]);
  } else {
    _mm256_storeu_ps(row + j0 + 8 * (NV - 1), acc[NV - 1]);
  }
}

// The last cols - j0 < 64 columns: one pass of ceil((cols - j0) / 8)
// accumulators, the last vector masked to the columns that exist.
inline void accum_tail(const float* m, std::size_t cols, std::size_t j0, const float* x,
                       std::size_t len, float* row) {
  const std::size_t rest = cols - j0;
  if (rest == 0) return;
  const std::size_t vectors = (rest + 7) / 8;
  const auto live = static_cast<int>(rest - 8 * (vectors - 1));  // 1..8 lanes
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(live), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  switch (vectors) {
    case 1: accum_pass<1, true>(m, cols, j0, x, len, row, mask); break;
    case 2: accum_pass<2, true>(m, cols, j0, x, len, row, mask); break;
    case 3: accum_pass<3, true>(m, cols, j0, x, len, row, mask); break;
    case 4: accum_pass<4, true>(m, cols, j0, x, len, row, mask); break;
    case 5: accum_pass<5, true>(m, cols, j0, x, len, row, mask); break;
    case 6: accum_pass<6, true>(m, cols, j0, x, len, row, mask); break;
    case 7: accum_pass<7, true>(m, cols, j0, x, len, row, mask); break;
    default: accum_pass<8, true>(m, cols, j0, x, len, row, mask); break;
  }
}

// One-row GEMV accumulate, `m` in reference (p-major) layout: 64-column
// passes (8 ymm accumulators), then the masked tail.
inline void accum_rows(const float* m, std::size_t cols, const float* x, std::size_t len,
                       float* row) {
  std::size_t j0 = 0;
  for (; j0 + 64 <= cols; j0 += 64) accum_pass<8, false>(m, cols, j0, x, len, row, __m256i{});
  accum_tail(m, cols, j0, x, len, row);
}

// Multi-session tile: N sessions x 16 columns of output pinned in
// registers (2N accumulators — at the N=6 sweet spot, 12 independent FMA
// chains, enough to cover the FMA latency), each weight vector
// broadcast-shared across the tile so the weight stream (the batch
// GEMV's bandwidth bottleneck; weights exceed L1) is read once per N
// sessions instead of once per session. Smaller instantiations (4, 2)
// mop up the batch remainder so a 64-session batch never falls back to
// re-streaming the whole weight matrix per leftover session.
constexpr int kSessTile = 6;

template <int N>
void accum_rows_tile(const float* m, std::size_t cols, const float* const* x, std::size_t len,
                     float* const* rows) {
  std::size_t j0 = 0;
  for (; j0 + 16 <= cols; j0 += 16) {
    __m256 acc[N][2];
    for (int s = 0; s < N; ++s) {
      acc[s][0] = _mm256_loadu_ps(rows[s] + j0);
      acc[s][1] = _mm256_loadu_ps(rows[s] + j0 + 8);
    }
    for (std::size_t p = 0; p < len; ++p) {
      const float* wrow = m + p * cols + j0;
      const __m256 w0 = _mm256_loadu_ps(wrow);
      const __m256 w1 = _mm256_loadu_ps(wrow + 8);
      for (int s = 0; s < N; ++s) {
        const __m256 xp = _mm256_set1_ps(x[s][p]);
        acc[s][0] = _mm256_fmadd_ps(xp, w0, acc[s][0]);
        acc[s][1] = _mm256_fmadd_ps(xp, w1, acc[s][1]);
      }
    }
    for (int s = 0; s < N; ++s) {
      _mm256_storeu_ps(rows[s] + j0, acc[s][0]);
      _mm256_storeu_ps(rows[s] + j0 + 8, acc[s][1]);
    }
  }
  // The last < 16 columns go through the one-row kernel's masked pass,
  // so every element gets exactly the chain accum_rows would give it.
  for (int s = 0; s < N; ++s) accum_tail(m, cols, j0, x[s], len, rows[s]);
}

// Full-batch GEMV accumulate: 6-session tiles, then 4/2-session tiles on
// the remainder, then a single-session pass for the last odd row.
void accum_rows_batch(const float* m, std::size_t cols, const float* const* x, std::size_t len,
                      float* const* rows, std::size_t n) {
  std::size_t i = 0;
  for (; i + kSessTile <= n; i += kSessTile) {
    accum_rows_tile<kSessTile>(m, cols, x + i, len, rows + i);
  }
  if (n - i >= 4) {
    accum_rows_tile<4>(m, cols, x + i, len, rows + i);
    i += 4;
  }
  if (n - i >= 2) {
    accum_rows_tile<2>(m, cols, x + i, len, rows + i);
    i += 2;
  }
  if (i < n) accum_rows(m, cols, x[i], len, rows[i]);
}

// gates = bias + wx[token] (or bias alone for the pad token): the seed
// every gate unit's FMA chain starts from.
void seed_gate_row(const LstmWeights& w, int token, float* g) {
  const std::size_t g4 = 4 * w.hidden;
  const float* wxrow = wx_row(w, token);
  if (wxrow == nullptr) {
    std::copy(w.bias, w.bias + g4, g);
    return;
  }
  std::size_t j = 0;
  for (; j + 8 <= g4; j += 8) {
    _mm256_storeu_ps(g + j, _mm256_add_ps(_mm256_loadu_ps(w.bias + j), _mm256_loadu_ps(wxrow + j)));
  }
  for (; j < g4; ++j) g[j] = w.bias[j] + wxrow[j];
}

void avx2_gates_batch(const LstmWeights& w, const float* const* h, const int* tokens,
                      float* const* gates, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) seed_gate_row(w, tokens[i], gates[i]);
  accum_rows_batch(w.wh, 4 * w.hidden, h, w.hidden, gates, n);
}

void avx2_activate_update(float* gates, std::size_t hidden, float* c, float* h) {
  // Gate layout [i | f | g | o]: sigmoid on [0, 2H) and [3H, 4H), tanh on
  // [2H, 3H). Scalar (libm) tails keep non-multiple-of-8 widths exact.
  const auto sigmoid_span = [](float* x, std::size_t n) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(x + j, sigmoid256(_mm256_loadu_ps(x + j)));
    for (; j < n; ++j) x[j] = gate_sigmoid(x[j]);
  };
  sigmoid_span(gates, 2 * hidden);
  std::size_t j = 0;
  float* gblock = gates + 2 * hidden;
  for (; j + 8 <= hidden; j += 8) {
    _mm256_storeu_ps(gblock + j, tanh256(_mm256_loadu_ps(gblock + j)));
  }
  for (; j < hidden; ++j) gblock[j] = std::tanh(gblock[j]);
  sigmoid_span(gates + 3 * hidden, hidden);

  // c = f*c + i*g; h = o * tanh(c).
  const float* ig = gates;
  const float* fg = gates + hidden;
  const float* gg = gates + 2 * hidden;
  const float* og = gates + 3 * hidden;
  j = 0;
  for (; j + 8 <= hidden; j += 8) {
    const __m256 cv = _mm256_fmadd_ps(_mm256_loadu_ps(fg + j), _mm256_loadu_ps(c + j),
                                      _mm256_mul_ps(_mm256_loadu_ps(ig + j),
                                                    _mm256_loadu_ps(gg + j)));
    _mm256_storeu_ps(c + j, cv);
    _mm256_storeu_ps(h + j, _mm256_mul_ps(_mm256_loadu_ps(og + j), tanh256(cv)));
  }
  for (; j < hidden; ++j) {
    c[j] = fg[j] * c[j] + ig[j] * gg[j];
    h[j] = og[j] * std::tanh(c[j]);
  }
}

// Logits seed with the head bias, then accumulate like the gates.
void avx2_head_batch(const LstmWeights& w, const float* const* h, float* const* logits,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) std::copy(w.head_b, w.head_b + w.head_out, logits[i]);
  accum_rows_batch(w.head_w, w.head_out, h, w.hidden, logits, n);
}

void avx2_softmax(const float* logits, std::size_t n, float* probs) {
  float mx = logits[0];
  for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, logits[i]);
  const __m256 mxv = _mm256_set1_ps(mx);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(probs + i, exp256(_mm256_sub_ps(_mm256_loadu_ps(logits + i), mxv)));
  }
  for (; i < n; ++i) probs[i] = std::exp(logits[i] - mx);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += probs[k];
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t k = 0; k < n; ++k) probs[k] *= inv;
}

}  // namespace

const Kernels* avx2_kernels() {
  static const Kernels kernels = {
      &avx2_gates_batch, &avx2_activate_update, &avx2_head_batch, &avx2_softmax,
  };
  return &kernels;
}

}  // namespace misuse::nn::infer

#else  // !MISUSEDET_HAVE_AVX2

namespace misuse::nn::infer {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace misuse::nn::infer

#endif
