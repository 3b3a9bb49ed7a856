// Int8 inference kernels: per-channel weight quantization, load-time panel
// packing, and the int8×int8→int32 GEMM that powers the P2 content tower's
// `--p2-dtype=int8` serving mode.
//
// The quantization scheme (DESIGN.md §12):
//
//  * WEIGHTS are quantized per OUTPUT CHANNEL, symmetric:
//      scale[j] = max_i |W[i,j]| / 127,   q[i,j] = round(W[i,j] / scale[j])
//    clamped to [-127, 127], and packed ONCE into SIMD-friendly panels at
//    model load (PackWeightPerChannel) — amortizing the per-call B-panel
//    packing the fp32 path pays on every GEMM.
//  * ACTIVATIONS are quantized dynamically per ROW, symmetric:
//      scale[r] = max_j |x[r,j]| / 127
//    so one outlier row cannot crush the resolution of its batch mates —
//    and, critically, a row's quantized bytes depend only on that row, which
//    keeps outputs independent of how an intra-op pool splits the rows
//    (the row-stability contract of tensor/kernels.h).
//  * ACCUMULATION is int32 and therefore EXACT: at the paper's largest
//    depth (k = 1200) the worst-case |acc| is 1200·127² ≈ 1.94e7 ≪ 2³¹, so
//    every kernel flavour — portable, SSE4.1, AVX2 — produces bitwise
//    identical accumulators. The fp32 dequantization epilogue
//    (acc · a_scale·w_scale + bias) is one shared scalar routine, so the
//    final float bytes are identical across kernels, runs, intra-op pool
//    sizes, and replicas. Int8 output is deterministic; it is NOT
//    fp32-identical (accuracy is tolerance-gated by tools/accuracy_gate.py).
//
// Packed layout: columns in blocks of kQuantNr (16); k rounded up to even
// and consumed in pairs so the int16 multiply-add idiom (madd / vpdpwssd
// after sign-extending the int8 panel to int16) maps 1:1. For column block
// b, k-pair p, the 32 int8 values are
//   { q[2p, j], q[2p+1, j] : j = 16b .. 16b+15 }
// interleaved so one 256-bit load feeds one widen + one multiply-add: a
// whole block is a single AVX-512 accumulator (vpdpwssd zmm when VNNI is
// compiled in), two AVX2 accumulators, or four SSE4.1 ones. Out-of-range
// k rows and columns are zero-padded (zero products are exact no-ops), so
// every row of every shape runs the same instruction sequence — the same
// row-stability trick the fp32 micro-kernel uses.

#ifndef TASTE_TENSOR_QUANT_H_
#define TASTE_TENSOR_QUANT_H_

#include <cstdint>
#include <vector>

namespace taste {
class ThreadPool;
}

namespace taste::tensor::quant {

/// Columns per packed block; one 512-bit accumulator register's worth.
inline constexpr int64_t kQuantNr = 16;

/// Kernel flavours. kAuto resolves to the best flavour compiled in; the
/// explicit values exist so tests can prove portable/SIMD byte-identity.
/// kAvx512 needs AVX512BW (and uses VNNI's vpdpwssd when compiled in).
enum class QuantKernel : uint8_t {
  kAuto = 0,
  kPortable = 1,
  kSse41 = 2,
  kAvx2 = 3,
  kAvx512 = 4,
};

/// The best flavour compiled into this binary
/// (kAvx512 ≥ kAvx2 ≥ kSse41 ≥ kPortable).
QuantKernel BestQuantKernel();
/// True when `k` (not kAuto) is compiled in and safe to call.
bool QuantKernelAvailable(QuantKernel k);
const char* QuantKernelName(QuantKernel k);

/// `k` rounded up to a whole number of k-pairs.
inline int64_t PaddedK(int64_t k) { return (k + 1) & ~int64_t{1}; }

/// A weight matrix quantized per output channel and packed once for the
/// int8 micro-kernel. Immutable after PackWeightPerChannel; safe to share
/// across threads and (copy-on-write) across forked serving replicas.
struct PackedQuantWeight {
  int64_t rows = 0;  // k: in_features of the fp32 weight (rows, cols)
  int64_t cols = 0;  // n: out_features
  int64_t k_pad = 0;        // rows rounded up to even
  int64_t col_blocks = 0;   // ceil(cols / kQuantNr)
  /// Interleaved k-pair × column-block panels (see layout note above);
  /// size col_blocks * (k_pad / 2) * 2 * kQuantNr.
  std::vector<int8_t> packed;
  /// Per-output-channel dequantization scales, size cols. An all-zero
  /// channel stores scale 0 (its quantized values are all zero, so the
  /// dequantized output is exactly 0 regardless).
  std::vector<float> scales;

  int64_t PackedBytes() const {
    return static_cast<int64_t>(packed.size()) +
           static_cast<int64_t>(scales.size() * sizeof(float));
  }
};

/// Quantizes and packs a row-major (rows, cols) fp32 weight. Deterministic:
/// the same bytes in produce the same panels and scales out on every
/// platform (scalar rounding only).
PackedQuantWeight PackWeightPerChannel(const float* w, int64_t rows,
                                       int64_t cols);

/// Dynamic per-row activation quantization: for each of `m` rows of x
/// (row-major, k wide), writes k_pad int16 values (int8-range, widened for
/// the madd idiom; pad zeroed) into q and the row's dequantization scale
/// into scales. A row of zeros gets scale 1 (all-zero quantized row).
void QuantizeActivationRows(const float* x, int64_t m, int64_t k, int16_t* q,
                            float* scales);

/// c (m, cols) row-major = dequant(qa · W) [+ bias]: int8×int8→int32 GEMM
/// against prepacked panels followed by the shared fp32 epilogue
///   c[r,j] = float(acc[r,j]) * (a_scales[r] * w.scales[j]) + bias[j].
/// `qa` holds m rows of w.k_pad int16s from QuantizeActivationRows. `bias`
/// (size cols) may be null. When `pool` is non-null and the problem is
/// large enough, rows are partitioned across workers — bytes unchanged
/// (per-row computation is exact-int, then the shared epilogue). Same
/// deadlock rule as kernels::GemmAcc: `pool` must not be the caller's pool.
void QuantGemm(const int16_t* qa, const float* a_scales,
               const PackedQuantWeight& w, const float* bias, float* c,
               int64_t m, ThreadPool* pool = nullptr,
               QuantKernel kernel = QuantKernel::kAuto);

/// Convenience fused path: quantizes x (m, w.rows) per row into thread-local
/// scratch, then QuantGemm. This is what the ops-layer QuantLinear calls.
void QuantLinearForward(const float* x, int64_t m, const PackedQuantWeight& w,
                        const float* bias, float* c, ThreadPool* pool = nullptr,
                        QuantKernel kernel = QuantKernel::kAuto);

}  // namespace taste::tensor::quant

#endif  // TASTE_TENSOR_QUANT_H_
