// Math and determinism suite for the int8 quantization layer
// (tensor/quant.h) and its ops/nn integration.
//
// The contract under test (DESIGN.md §12):
//   * per-channel symmetric weight quantization round-trips within half a
//     quantization step, with exact edge behaviour for all-zero channels
//     and k=1 (the k-pad path);
//   * int32 accumulation is exact at the paper's largest depth (k = 1200),
//     verified against an int64 reference over the unpacked panels;
//   * every compiled kernel flavour (portable / SSE4.1 / AVX2) produces
//     BYTE-identical fp32 outputs — the serving tier's int8 determinism
//     rests on this, so it is fuzzed across 50 seeds of random shapes;
//   * outputs are independent of the row count and of the intra-op pool,
//     byte for byte, like the fp32 kernels (tests/kernels_test.cc);
//   * the nn::Linear gate only takes the int8 path inside an int8
//     ExecContext quant region with gradients off.

#include "tensor/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/layers.h"
#include "tensor/exec_context.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace taste::tensor::quant {
namespace {

std::vector<float> RandomVec(int64_t n, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian()) * scale;
  return v;
}

/// Recovers q[i][j] from the interleaved panels (layout note in quant.h):
/// column block b, k-pair p, the 16 bytes are (q[2p,j], q[2p+1,j]) for the
/// block's 8 columns in order.
int8_t UnpackedAt(const PackedQuantWeight& w, int64_t i, int64_t j) {
  const int64_t b = j / kQuantNr;
  const int64_t jc = j % kQuantNr;
  const int64_t p = i / 2;
  const int64_t pairs = w.k_pad / 2;
  const int64_t base = (b * pairs + p) * 2 * kQuantNr;
  return w.packed[static_cast<size_t>(base + 2 * jc + (i & 1))];
}

TEST(QuantPackTest, RoundTripWithinHalfStep) {
  Rng rng(7);
  const int64_t k = 37, n = 21;
  std::vector<float> w = RandomVec(k * n, rng);
  PackedQuantWeight packed = PackWeightPerChannel(w.data(), k, n);
  ASSERT_EQ(packed.rows, k);
  ASSERT_EQ(packed.cols, n);
  ASSERT_EQ(packed.k_pad, PaddedK(k));
  ASSERT_EQ(static_cast<int64_t>(packed.scales.size()), n);
  for (int64_t j = 0; j < n; ++j) {
    const float scale = packed.scales[j];
    ASSERT_GT(scale, 0.0f);
    for (int64_t i = 0; i < k; ++i) {
      const float dequant = static_cast<float>(UnpackedAt(packed, i, j)) * scale;
      // Symmetric round-to-nearest: error bounded by half a step.
      EXPECT_NEAR(w[static_cast<size_t>(i * n + j)], dequant,
                  scale * 0.5f + 1e-7f)
          << "i=" << i << " j=" << j;
    }
  }
  // Padded k rows must be exact zeros (they contribute to every dot).
  for (int64_t i = k; i < packed.k_pad; ++i) {
    for (int64_t j = 0; j < n; ++j) EXPECT_EQ(UnpackedAt(packed, i, j), 0);
  }
}

TEST(QuantPackTest, AllZeroChannelHasZeroScaleAndZeroOutput) {
  Rng rng(11);
  const int64_t k = 16, n = 9;
  std::vector<float> w = RandomVec(k * n, rng);
  for (int64_t i = 0; i < k; ++i) w[static_cast<size_t>(i * n + 4)] = 0.0f;
  PackedQuantWeight packed = PackWeightPerChannel(w.data(), k, n);
  EXPECT_EQ(packed.scales[4], 0.0f);
  for (int64_t i = 0; i < k; ++i) EXPECT_EQ(UnpackedAt(packed, i, 4), 0);

  const int64_t m = 3;
  std::vector<float> x = RandomVec(m * k, rng);
  std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
  QuantLinearForward(x.data(), m, packed, /*bias=*/nullptr, c.data(), nullptr);
  for (int64_t r = 0; r < m; ++r) {
    EXPECT_EQ(c[static_cast<size_t>(r * n + 4)], 0.0f);
  }
}

TEST(QuantPackTest, SingleElementChannelAndKOne) {
  // k = 1 exercises the k-pad path: one real row plus one zero pad row.
  const int64_t k = 1, n = 3;
  const float w[] = {0.5f, -2.0f, 0.0f};
  PackedQuantWeight packed = PackWeightPerChannel(w, k, n);
  EXPECT_EQ(packed.k_pad, 2);
  EXPECT_FLOAT_EQ(packed.scales[0], 0.5f / 127.0f);
  EXPECT_FLOAT_EQ(packed.scales[1], 2.0f / 127.0f);
  EXPECT_EQ(packed.scales[2], 0.0f);
  EXPECT_EQ(UnpackedAt(packed, 0, 0), 127);
  EXPECT_EQ(UnpackedAt(packed, 0, 1), -127);
  EXPECT_EQ(UnpackedAt(packed, 0, 2), 0);

  // A 1x1 forward through the padded pair stays exact for representable
  // values (q = ±127 round-trips to the stored scale times ±127).
  const float x = 3.0f;
  float c[3] = {0, 0, 0};
  QuantLinearForward(&x, 1, packed, nullptr, c, nullptr);
  EXPECT_NEAR(c[0], 1.5f, 1.5f * 0.02f);
  EXPECT_NEAR(c[1], -6.0f, 6.0f * 0.02f);
  EXPECT_EQ(c[2], 0.0f);
}

TEST(QuantActivationTest, PerRowScalesAndZeroRow) {
  const int64_t m = 2, k = 3;
  const float x[] = {1.0f, -4.0f, 2.0f, 0.0f, 0.0f, 0.0f};
  std::vector<int16_t> q(static_cast<size_t>(m * PaddedK(k)), 99);
  std::vector<float> scales(static_cast<size_t>(m), -1.0f);
  QuantizeActivationRows(x, m, k, q.data(), scales.data());
  EXPECT_FLOAT_EQ(scales[0], 4.0f / 127.0f);
  EXPECT_EQ(q[1], -127);  // the row max hits the full range
  // A zero row must quantize to zeros with a harmless scale (no div-by-0).
  EXPECT_EQ(q[static_cast<size_t>(PaddedK(k))], 0);
  EXPECT_GT(scales[1], 0.0f);
  // Pad entries are zero.
  EXPECT_EQ(q[3], 0);
}

// Int32 accumulation is exact at the paper's largest depth: drive k = 1200
// with extreme-magnitude inputs (every quantized value at ±127) and check
// each kernel's accumulator against an int64 reference over the unpacked
// panels. 1200 * 127 * 127 = 19354800 fits int32 with 100x headroom, but a
// 16-bit intermediate would have wrapped — this is the regression test for
// the madd-idiom's widening.
TEST(QuantGemmTest, Int32ExactAtPaperDepthExtremes) {
  const int64_t m = 3, k = 1200, n = 17;
  Rng rng(23);
  std::vector<float> w(static_cast<size_t>(k * n));
  std::vector<float> x(static_cast<size_t>(m * k));
  for (auto& v : w) v = (rng.NextU64() & 1) ? 1.0f : -1.0f;  // q = ±127
  for (auto& v : x) v = (rng.NextU64() & 1) ? 1.0f : -1.0f;
  PackedQuantWeight packed = PackWeightPerChannel(w.data(), k, n);

  std::vector<int16_t> qa(static_cast<size_t>(m * packed.k_pad));
  std::vector<float> a_scales(static_cast<size_t>(m));
  QuantizeActivationRows(x.data(), m, k, qa.data(), a_scales.data());

  for (QuantKernel kern :
       {QuantKernel::kPortable, QuantKernel::kSse41, QuantKernel::kAvx2,
        QuantKernel::kAvx512}) {
    if (!QuantKernelAvailable(kern)) continue;
    std::vector<float> c(static_cast<size_t>(m * n));
    QuantGemm(qa.data(), a_scales.data(), packed, nullptr, c.data(), m,
              nullptr, kern);
    for (int64_t r = 0; r < m; ++r) {
      for (int64_t j = 0; j < n; ++j) {
        int64_t acc = 0;
        for (int64_t i = 0; i < packed.k_pad; ++i) {
          acc += static_cast<int64_t>(qa[static_cast<size_t>(
                     r * packed.k_pad + i)]) *
                 static_cast<int64_t>(UnpackedAt(packed, i, j));
        }
        ASSERT_LT(std::abs(acc), int64_t{1} << 31);
        const float want = static_cast<float>(acc) *
                           (a_scales[static_cast<size_t>(r)] *
                            packed.scales[static_cast<size_t>(j)]);
        ASSERT_EQ(c[static_cast<size_t>(r * n + j)], want)
            << QuantKernelName(kern) << " r=" << r << " j=" << j;
      }
    }
  }
}

// The determinism keystone: every compiled flavour must produce the same
// fp32 bytes for random shapes covering the block/pad boundaries. 50 seeds
// of random (m, k, n) — including k > 1200 and sub-block n — memcmp'd
// against the portable kernel.
TEST(QuantGemmTest, KernelFlavoursByteIdenticalAcross50Seeds) {
  if (BestQuantKernel() == QuantKernel::kPortable) {
    GTEST_SKIP() << "no SIMD flavour compiled in";
  }
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 2654435761u);
    const int64_t m = 1 + static_cast<int64_t>(rng.NextU64() % 40);
    const int64_t k = 1 + static_cast<int64_t>(rng.NextU64() % 1300);
    const int64_t n = 1 + static_cast<int64_t>(rng.NextU64() % 70);
    std::vector<float> w = RandomVec(k * n, rng);
    std::vector<float> x = RandomVec(m * k, rng, 3.0f);
    PackedQuantWeight packed = PackWeightPerChannel(w.data(), k, n);
    std::vector<float> bias = RandomVec(n, rng);

    std::vector<float> base(static_cast<size_t>(m * n));
    QuantLinearForward(x.data(), m, packed, bias.data(), base.data(), nullptr,
                       QuantKernel::kPortable);
    for (QuantKernel kern : {QuantKernel::kSse41, QuantKernel::kAvx2,
                             QuantKernel::kAvx512}) {
      if (!QuantKernelAvailable(kern)) continue;
      std::vector<float> got(static_cast<size_t>(m * n), -7.0f);
      QuantLinearForward(x.data(), m, packed, bias.data(), got.data(),
                         nullptr, kern);
      ASSERT_EQ(0, std::memcmp(base.data(), got.data(),
                               base.size() * sizeof(float)))
          << "seed=" << seed << " kernel=" << QuantKernelName(kern)
          << " m=" << m << " k=" << k << " n=" << n;
    }
  }
}

// Row-stability + pool independence: row r of a multi-row forward is byte
// identical to a single-row forward of the same row, with or without an
// intra-op pool. This is what keeps int8 bytes independent of how an
// intra-op pool splits the rows, so replicas agree byte for byte.
TEST(QuantGemmTest, BatchCompositionAndPoolIndependence) {
  Rng rng(31);
  const int64_t m = 9, k = 312, n = 64;
  std::vector<float> w = RandomVec(k * n, rng);
  std::vector<float> x = RandomVec(m * k, rng);
  std::vector<float> bias = RandomVec(n, rng);
  PackedQuantWeight packed = PackWeightPerChannel(w.data(), k, n);

  std::vector<float> batched(static_cast<size_t>(m * n));
  QuantLinearForward(x.data(), m, packed, bias.data(), batched.data(),
                     nullptr);
  ThreadPool pool(3);
  std::vector<float> pooled(static_cast<size_t>(m * n));
  QuantLinearForward(x.data(), m, packed, bias.data(), pooled.data(), &pool);
  EXPECT_EQ(0, std::memcmp(batched.data(), pooled.data(),
                           batched.size() * sizeof(float)));
  for (int64_t r = 0; r < m; ++r) {
    std::vector<float> solo(static_cast<size_t>(n));
    QuantLinearForward(x.data() + r * k, 1, packed, bias.data(), solo.data(),
                       nullptr);
    ASSERT_EQ(0, std::memcmp(solo.data(), batched.data() + r * n,
                             solo.size() * sizeof(float)))
        << "row " << r;
  }
}

TEST(QuantGemmTest, TracksFp32WithinQuantizationBound) {
  Rng rng(43);
  const int64_t m = 6, k = 200, n = 24;
  std::vector<float> w = RandomVec(k * n, rng);
  std::vector<float> x = RandomVec(m * k, rng);
  PackedQuantWeight packed = PackWeightPerChannel(w.data(), k, n);
  std::vector<int16_t> qa(static_cast<size_t>(m * packed.k_pad));
  std::vector<float> a_scales(static_cast<size_t>(m));
  QuantizeActivationRows(x.data(), m, k, qa.data(), a_scales.data());
  std::vector<float> c(static_cast<size_t>(m * n));
  QuantLinearForward(x.data(), m, packed, nullptr, c.data(), nullptr);

  for (int64_t r = 0; r < m; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      double fp32 = 0.0, bound = 0.0;
      const double ea = a_scales[static_cast<size_t>(r)] * 0.5;
      const double ew = packed.scales[static_cast<size_t>(j)] * 0.5;
      for (int64_t i = 0; i < k; ++i) {
        const double xi = x[static_cast<size_t>(r * k + i)];
        const double wi = w[static_cast<size_t>(i * n + j)];
        fp32 += xi * wi;
        // |x̂ŵ − xw| ≤ |x|·ew + |w|·ea + ea·ew per term.
        bound += std::abs(xi) * ew + std::abs(wi) * ea + ea * ew;
      }
      EXPECT_NEAR(c[static_cast<size_t>(r * n + j)], fp32, bound + 1e-4)
          << "r=" << r << " j=" << j;
    }
  }
}

// The nn gate: Linear::Forward only takes the int8 path when prepacked AND
// inside an int8-context quant region AND gradients are off. Everything
// else must be the bitwise fp32 path.
TEST(QuantLinearGateTest, ActivatesOnlyInsideInt8QuantRegion) {
  Rng rng(5);
  nn::Linear lin(48, 32, rng);
  Tensor x = Tensor::Randn({4, 48}, rng);

  ExecContext::Options fp32_opts;
  fp32_opts.no_grad = true;
  ExecContext fp32_ctx(fp32_opts);
  Tensor fp32_out = lin.Forward(x, &fp32_ctx);

  ASSERT_GT(lin.PrepackQuant(), 0);
  ASSERT_TRUE(lin.quant_prepacked());
  EXPECT_EQ(static_cast<int64_t>(lin.QuantScales().size()), 32);

  // Prepacked but fp32 context: still the fp32 bytes.
  Tensor still_fp32 = lin.Forward(x, &fp32_ctx);
  ASSERT_EQ(0, std::memcmp(fp32_out.data(), still_fp32.data(),
                           sizeof(float) * static_cast<size_t>(
                               fp32_out.numel())));

  // Int8 context, but no quant region open: the dtype alone must not flip
  // kernels mid-graph (only AdtdModel's content forwards open regions).
  ExecContext::Options int8_opts;
  int8_opts.no_grad = true;
  int8_opts.p2_dtype = P2Dtype::kInt8;
  ExecContext int8_ctx(int8_opts);
  Tensor outside_region = lin.Forward(x, &int8_ctx);
  ASSERT_EQ(0, std::memcmp(fp32_out.data(), outside_region.data(),
                           sizeof(float) * static_cast<size_t>(
                               fp32_out.numel())));

  // Inside the region: int8 path — deterministic, near fp32, not
  // byte-equal to it.
  Tensor int8_a, int8_b;
  {
    ScopedExecContext scope(&int8_ctx);
    ScopedQuantRegion region(ExecContext::Current());
    int8_a = lin.Forward(x);
    int8_b = lin.Forward(x);
  }
  ASSERT_EQ(0, std::memcmp(int8_a.data(), int8_b.data(),
                           sizeof(float) * static_cast<size_t>(
                               int8_a.numel())));
  EXPECT_NE(0, std::memcmp(fp32_out.data(), int8_a.data(),
                           sizeof(float) * static_cast<size_t>(
                               fp32_out.numel())));
  for (int64_t i = 0; i < fp32_out.numel(); ++i) {
    EXPECT_NEAR(int8_a.data()[i], fp32_out.data()[i], 0.15f) << "i=" << i;
  }
  // Region closed with the context still bound: back to fp32 bytes.
  {
    ScopedExecContext scope(&int8_ctx);
    Tensor after = lin.Forward(x);
    EXPECT_EQ(0, std::memcmp(fp32_out.data(), after.data(),
                             sizeof(float) * static_cast<size_t>(
                                 fp32_out.numel())));
  }
}

}  // namespace
}  // namespace taste::tensor::quant
