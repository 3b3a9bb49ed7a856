#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/thread_pool.h"

namespace taste::tensor::kernels {

namespace {

// Blocking parameters. MR x NR is the register tile of the micro kernel
// (4 x 16 floats = 8 AVX2 accumulator registers, leaving room for the A
// broadcasts and B loads); KC x NC bounds the packed B panel (512 KiB) so
// it stays cache-resident while the row sweep reuses it; MC bounds the
// packed A panel.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;
constexpr int64_t kKc = 256;
constexpr int64_t kMc = 64;
constexpr int64_t kNc = 512;

/// Below this many flops (2*m*n*k) the fork/join overhead of the pool
/// outweighs the work; run serially.
constexpr int64_t kMinParallelFlops = 1 << 21;

inline float OpA(const float* a, int64_t i, int64_t p, int64_t m, int64_t k,
                 bool trans_a) {
  return trans_a ? a[p * m + i] : a[i * k + p];
}

inline float OpB(const float* b, int64_t p, int64_t j, int64_t n, int64_t k,
                 bool trans_b) {
  return trans_b ? b[j * k + p] : b[p * n + j];
}

/// Packs op(A)[i0:i0+mb, p0:p0+kb] into dst (mb x kb row-major).
void PackA(float* __restrict dst, const float* a, int64_t i0, int64_t mb,
           int64_t p0, int64_t kb, int64_t m, int64_t k, bool trans_a) {
  if (!trans_a) {
    for (int64_t r = 0; r < mb; ++r) {
      const float* src = a + (i0 + r) * k + p0;
      float* d = dst + r * kb;
      for (int64_t q = 0; q < kb; ++q) d[q] = src[q];
    }
  } else {
    // A stored (k, m): column i0+r of the storage becomes packed row r.
    for (int64_t q = 0; q < kb; ++q) {
      const float* src = a + (p0 + q) * m + i0;
      for (int64_t r = 0; r < mb; ++r) dst[r * kb + q] = src[r];
    }
  }
}

/// Packs op(B)[p0:p0+kb, j0:j0+nb] into dst (kb x nb row-major).
void PackB(float* __restrict dst, const float* b, int64_t p0, int64_t kb,
           int64_t j0, int64_t nb, int64_t n, int64_t k, bool trans_b) {
  if (!trans_b) {
    for (int64_t q = 0; q < kb; ++q) {
      const float* src = b + (p0 + q) * n + j0;
      float* d = dst + q * nb;
      for (int64_t t = 0; t < nb; ++t) d[t] = src[t];
    }
  } else {
    // B stored (n, k): row j0+t of the storage becomes packed column t.
    for (int64_t t = 0; t < nb; ++t) {
      const float* src = b + (j0 + t) * k + p0;
      for (int64_t q = 0; q < kb; ++q) dst[q * nb + t] = src[q];
    }
  }
}

/// C-tile update from packed panels: C[.. , ..] += pa * pb where pa is
/// (mb_pad x kb) with mb_pad a multiple of kMr — rows at and past `live`
/// are zero-filled padding whose results are discarded; only the first
/// `live` rows of C are read or written. The accumulators are seeded from
/// C and updated in increasing-p order, so each element's floating-point
/// summation order is exactly the naive kernel's.
///
/// There is deliberately NO scalar row-remainder path: every row — padding
/// included — flows through the one kMr-band accumulation loop, so a row's
/// bits depend only on its own A-row, the B panel, and the k/n blocking,
/// never on where the row sits inside M. (A per-loop-shape remainder would
/// let the compiler contract mul+add differently there, making row bytes
/// shift when rows are concatenated — exactly what the cross-table P2
/// batcher's byte-identity guarantee forbids.)
void MicroTile(const float* __restrict pa, const float* __restrict pb,
               float* __restrict c, int64_t ldc, int64_t mb_pad, int64_t nb,
               int64_t kb, int64_t live) {
  for (int64_t i = 0; i < mb_pad; i += kMr) {
    const int64_t band_live = std::min(kMr, live - i);
    int64_t j = 0;
    for (; j + kNr <= nb; j += kNr) {
      float acc[kMr][kNr];
      for (int64_t r = 0; r < kMr; ++r) {
        if (r < band_live) {
          const float* crow = c + (i + r) * ldc + j;
          for (int64_t t = 0; t < kNr; ++t) acc[r][t] = crow[t];
        } else {
          for (int64_t t = 0; t < kNr; ++t) acc[r][t] = 0.0f;
        }
      }
      const float* a0 = pa + (i + 0) * kb;
      const float* a1 = pa + (i + 1) * kb;
      const float* a2 = pa + (i + 2) * kb;
      const float* a3 = pa + (i + 3) * kb;
      for (int64_t p = 0; p < kb; ++p) {
        const float* __restrict brow = pb + p * nb + j;
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        for (int64_t t = 0; t < kNr; ++t) {
          acc[0][t] += av0 * brow[t];
          acc[1][t] += av1 * brow[t];
          acc[2][t] += av2 * brow[t];
          acc[3][t] += av3 * brow[t];
        }
      }
      for (int64_t r = 0; r < band_live; ++r) {
        float* crow = c + (i + r) * ldc + j;
        for (int64_t t = 0; t < kNr; ++t) crow[t] = acc[r][t];
      }
    }
    // Column remainder of the band: one scalar chain per element, identical
    // for every row position.
    for (; j < nb; ++j) {
      for (int64_t r = 0; r < band_live; ++r) {
        const float* arow = pa + (i + r) * kb;
        float s = c[(i + r) * ldc + j];
        for (int64_t p = 0; p < kb; ++p) s += arow[p] * pb[p * nb + j];
        c[(i + r) * ldc + j] = s;
      }
    }
  }
}

struct PackScratch {
  std::vector<float> a;
  std::vector<float> b;
};

PackScratch& Scratch() {
  thread_local PackScratch s;
  return s;
}

/// Serial blocked GEMM over the C row range [r0, r1).
void GemmBlockedRows(const float* a, const float* b, float* c, int64_t m,
                     int64_t n, int64_t k, bool trans_a, bool trans_b,
                     int64_t r0, int64_t r1) {
  PackScratch& s = Scratch();
  s.a.resize(static_cast<size_t>(kMc * kKc));
  s.b.resize(static_cast<size_t>(kKc * kNc));
  for (int64_t j0 = 0; j0 < n; j0 += kNc) {
    const int64_t nb = std::min(kNc, n - j0);
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t kb = std::min(kKc, k - p0);
      PackB(s.b.data(), b, p0, kb, j0, nb, n, k, trans_b);
      for (int64_t i0 = r0; i0 < r1; i0 += kMc) {
        const int64_t mb = std::min(kMc, r1 - i0);
        const int64_t mb_pad = (mb + kMr - 1) / kMr * kMr;
        PackA(s.a.data(), a, i0, mb, p0, kb, m, k, trans_a);
        // Zero-fill the padding rows so the micro kernel can treat every
        // band as full; their (discarded) products are exact zeros.
        std::fill(s.a.data() + mb * kb, s.a.data() + mb_pad * kb, 0.0f);
        MicroTile(s.a.data(), s.b.data(), c + i0 * n + j0, n, mb_pad, nb, kb,
                  mb);
      }
    }
  }
}

}  // namespace

void GemmAccRef(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b) {
  if (!trans_a && !trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      const float* arow = a + i * k;
      for (int64_t p = 0; p < k; ++p) {
        float av = arow[p];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
    }
  } else if (trans_a && !trans_b) {
    for (int64_t p = 0; p < k; ++p) {
      const float* arow = a + p * m;
      const float* brow = b + p * n;
      for (int64_t i = 0; i < m; ++i) {
        float av = arow[i];
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {  // trans_a && trans_b
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
        crow[j] += acc;
      }
    }
  }
}

void GemmAcc(const float* a, const float* b, float* c, int64_t m, int64_t n,
             int64_t k, bool trans_a, bool trans_b, ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const int64_t flops = 2 * m * n * k;
  if (pool == nullptr || pool->size() <= 1 || flops < kMinParallelFlops ||
      m < 2 * kMr) {
    GemmBlockedRows(a, b, c, m, n, k, trans_a, trans_b, 0, m);
    return;
  }
  // Row-partitioned fork/join: each worker runs the serial blocked kernel
  // on a contiguous band of C rows with its own packing scratch. Bands are
  // multiples of kMr so the fast micro-tile path applies everywhere but the
  // final band.
  const int64_t num_tasks =
      std::min<int64_t>(static_cast<int64_t>(pool->size()),
                        (m + kMr - 1) / kMr);
  const int64_t rows_per_task =
      ((m + num_tasks - 1) / num_tasks + kMr - 1) / kMr * kMr;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(num_tasks));
  for (int64_t r0 = 0; r0 < m; r0 += rows_per_task) {
    const int64_t r1 = std::min(m, r0 + rows_per_task);
    futures.push_back(pool->Submit([a, b, c, m, n, k, trans_a, trans_b, r0,
                                    r1] {
      GemmBlockedRows(a, b, c, m, n, k, trans_a, trans_b, r0, r1);
    }));
  }
  for (auto& f : futures) f.get();
}

#if defined(__AVX2__) && defined(__FMA__)

namespace {

/// Lane masks for a [0, 8) element tail: kTailMask + 8 - n yields n active
/// (all-ones) low lanes. Masked load/store keeps every active element on
/// the same instruction path as full vectors, so results cannot depend on
/// where a row's tail happens to fall — the row-stability that keeps
/// outputs independent of how rows are split across intra-op tasks.
alignas(32) constexpr int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i TailMask(int64_t n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 8 - n));
}

/// exp(x), 8 lanes: clamp to [-87, 88] (well inside float range; softmax
/// feeds only x <= 0), base-2 range reduction with a Cody-Waite two-term
/// ln2, and the classic Cephes degree-5 polynomial — ~2 ulp over the
/// reduced range, exp(0) == 1 exactly (the softmax max lane). One shared
/// implementation: every exp in the process computes the same bits for the
/// same input, whatever op called it.
inline __m256 Exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.0f)),
                    _mm256_set1_ps(88.0f));
  const __m256 n = _mm256_floor_ps(_mm256_fmadd_ps(
      x, _mm256_set1_ps(1.44269504088896341f), _mm256_set1_ps(0.5f)));
  __m256 f = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  f = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), f);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 z = _mm256_mul_ps(f, f);
  __m256 y = _mm256_fmadd_ps(p, z, f);
  y = _mm256_add_ps(y, one);
  // 2^n via exponent bits; n is in [-125, 127] after the clamp, so the
  // biased exponent stays in (0, 255) — no overflow or denormal scales.
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
}

/// tanh(u) = 1 - 2 / (exp(2u) + 1); saturates cleanly at ±1 through the
/// exp clamp. Absolute error ~1e-7 — the GELU contract is the vectorized
/// approximation, not libm (tests compare against a 1e-6 band).
inline __m256 Tanh256(__m256 u) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp256(_mm256_add_ps(u, u));
  return _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_add_ps(one, one), _mm256_add_ps(e, one)));
}

inline float HorizontalMax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}

inline float HorizontalSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

}  // namespace

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * h;
    float* out = y + r * h;
    // Max reduce: fp max is exact, so mixing vector lanes and a scalar
    // tail cannot change the result.
    float mx = row[0];
    int64_t j = 0;
    if (h >= 8) {
      __m256 vm = _mm256_loadu_ps(row);
      for (j = 8; j + 8 <= h; j += 8) {
        vm = _mm256_max_ps(vm, _mm256_loadu_ps(row + j));
      }
      mx = HorizontalMax(vm);
    }
    for (; j < h; ++j) mx = std::max(mx, row[j]);
    // exp and sum. The lane-partial + horizontal reduction order is fixed
    // by h alone, so a row's sum depends only on that row's bytes.
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (j = 0; j + 8 <= h; j += 8) {
      const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmx));
      _mm256_storeu_ps(out + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    if (j < h) {
      const __m256i mask = TailMask(h - j);
      const __m256 v = _mm256_maskload_ps(row + j, mask);
      // Zero the inactive lanes (maskload fed them 0, exp made that 1).
      const __m256 e = _mm256_and_ps(Exp256(_mm256_sub_ps(v, vmx)),
                                     _mm256_castsi256_ps(mask));
      _mm256_maskstore_ps(out + j, mask, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    const float inv = 1.0f / HorizontalSum(vsum);
    const __m256 vinv = _mm256_set1_ps(inv);
    for (j = 0; j + 8 <= h; j += 8) {
      _mm256_storeu_ps(out + j,
                       _mm256_mul_ps(_mm256_loadu_ps(out + j), vinv));
    }
    for (; j < h; ++j) out[j] *= inv;
  }
}

#else  // !(__AVX2__ && __FMA__)

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * h;
    float* out = y + r * h;
    float mx = row[0];
    for (int64_t j = 1; j < h; ++j) mx = std::max(mx, row[j]);
    float sum = 0;
    for (int64_t j = 0; j < h; ++j) {
      float e = std::exp(row[j] - mx);
      out[j] = e;
      sum += e;
    }
    float inv = 1.0f / sum;
    for (int64_t j = 0; j < h; ++j) out[j] *= inv;
  }
}

#endif  // __AVX2__ && __FMA__

void SoftmaxGradRows(const float* y, const float* dy, float* dx,
                     int64_t rows, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * h;
    const float* dyr = dy + r * h;
    float* dxr = dx + r * h;
    float dot = 0;
    for (int64_t j = 0; j < h; ++j) dot += dyr[j] * yr[j];
    for (int64_t j = 0; j < h; ++j) dxr[j] += yr[j] * (dyr[j] - dot);
  }
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, int64_t rows, int64_t h, float* y, float* xhat,
                   float* inv_std) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * h;
    float mean = 0;
    for (int64_t j = 0; j < h; ++j) mean += row[j];
    mean /= static_cast<float>(h);
    float var = 0;
    for (int64_t j = 0; j < h; ++j) {
      float d = row[j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(h);
    float inv = 1.0f / std::sqrt(var + eps);
    inv_std[r] = inv;
    for (int64_t j = 0; j < h; ++j) {
      float xh = (row[j] - mean) * inv;
      xhat[r * h + j] = xh;
      y[r * h + j] = gamma[j] * xh + beta[j];
    }
  }
}

void LayerNormGradRows(const float* gamma, const float* xhat,
                       const float* inv_std, const float* dy, int64_t rows,
                       int64_t h, float* dgamma, float* dbeta, float* dx) {
  if (dgamma != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < h; ++j) {
        dgamma[j] += dy[r * h + j] * xhat[r * h + j];
      }
    }
  }
  if (dbeta != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < h; ++j) dbeta[j] += dy[r * h + j];
    }
  }
  if (dx != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      float mean_dxhat = 0, mean_dxhat_xhat = 0;
      for (int64_t j = 0; j < h; ++j) {
        float dxh = dy[r * h + j] * gamma[j];
        mean_dxhat += dxh;
        mean_dxhat_xhat += dxh * xhat[r * h + j];
      }
      mean_dxhat /= static_cast<float>(h);
      mean_dxhat_xhat /= static_cast<float>(h);
      float inv = inv_std[r];
      for (int64_t j = 0; j < h; ++j) {
        float dxh = dy[r * h + j] * gamma[j];
        dx[r * h + j] +=
            inv * (dxh - mean_dxhat - xhat[r * h + j] * mean_dxhat_xhat);
      }
    }
  }
}

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

}  // namespace

#if defined(__AVX2__) && defined(__FMA__)

void GeluRows(const float* x, float* y, int64_t n) {
  const __m256 vc = _mm256_set1_ps(kGeluC);
  const __m256 va = _mm256_set1_ps(kGeluA);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 u =
        _mm256_mul_ps(vc, _mm256_fmadd_ps(va, _mm256_mul_ps(v2, v), v));
    const __m256 t = Tanh256(u);
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  if (i < n) {
    const __m256i mask = TailMask(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, mask);
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 u =
        _mm256_mul_ps(vc, _mm256_fmadd_ps(va, _mm256_mul_ps(v2, v), v));
    const __m256 t = Tanh256(u);
    _mm256_maskstore_ps(
        y + i, mask,
        _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
}

#else  // !(__AVX2__ && __FMA__)

void GeluRows(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + kGeluA * v * v * v);
    y[i] = 0.5f * v * (1.0f + std::tanh(u));
  }
}

#endif  // __AVX2__ && __FMA__

void GeluGradRows(const float* x, const float* dy, float* dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + kGeluA * v * v * v);
    float t = std::tanh(u);
    float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    dx[i] += (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du) * dy[i];
  }
}

void AddSpan(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void SubSpan(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
}

void MulSpan(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}

void ScaleSpan(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] * s;
}

void AccumulateSpan(const float* src, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AxpySpan(float alpha, const float* src, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void MulAccumulateSpan(const float* a, const float* b, float* dst,
                       int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

}  // namespace taste::tensor::kernels
