// Parity suite for the raw kernel layer (tensor/kernels.h).
//
// Determinism split (see kernels.h): the blocked GEMM — serial or
// row-partitioned across a ThreadPool — is BITWISE identical to its own
// serial self for ALL transpose variants at any thread count (the
// pipeline's byte-identical-output guarantee rests on this), and matches
// the naive reference to 1e-5 relative (the reference rounds differently:
// accumulator seeding and per-loop-shape FMA contraction).

#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace taste::tensor::kernels {
namespace {

std::vector<float> RandomVec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

struct GemmShape {
  int64_t m, n, k;
};

// Covers the register tile (4x16), its remainders, cache-block boundaries
// (KC=256, MC=64, NC=512 in kernels.cc), and degenerate dims.
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 16, 7},   {4, 16, 3},   {5, 17, 9},  {3, 1, 64},
    {1, 33, 1},   {7, 7, 7},    {64, 16, 48}, {13, 40, 21}, {65, 513, 12},
    {31, 130, 300},
};

void CheckAllVariants(const GemmShape& s, ThreadPool* pool) {
  Rng rng(s.m * 1000003 + s.n * 1009 + s.k);
  // Operand storage covers both layouts; transposed variants reinterpret.
  std::vector<float> a = RandomVec(s.m * s.k, rng);
  std::vector<float> b = RandomVec(s.k * s.n, rng);
  std::vector<float> c0 = RandomVec(s.m * s.n, rng);  // nonzero seed: C +=
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      std::vector<float> want = c0;
      GemmAccRef(a.data(), b.data(), want.data(), s.m, s.n, s.k, trans_a,
                 trans_b);
      std::vector<float> serial = c0;
      GemmAcc(a.data(), b.data(), serial.data(), s.m, s.n, s.k, trans_a,
              trans_b, /*pool=*/nullptr);
      std::vector<float> got = c0;
      GemmAcc(a.data(), b.data(), got.data(), s.m, s.n, s.k, trans_a, trans_b,
              pool);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        const char* variant = trans_a ? (trans_b ? "TT" : "TN")
                                      : (trans_b ? "NT" : "NN");
        // Blocked (any thread count) == blocked serial, always bitwise.
        ASSERT_EQ(serial[i], got[i])
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " " << variant
            << " at " << i;
        ASSERT_NEAR(want[i], got[i], 1e-5f * (1.0f + std::abs(want[i])))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " " << variant
            << " at " << i;
      }
    }
  }
}

TEST(KernelsGemmTest, BlockedMatchesReference) {
  for (const GemmShape& s : kShapes) CheckAllVariants(s, /*pool=*/nullptr);
}

TEST(KernelsGemmTest, ParallelMatchesSerialAndReference) {
  ThreadPool pool(3);
  for (const GemmShape& s : kShapes) CheckAllVariants(s, &pool);
}

TEST(KernelsGemmTest, ParallelLargeProblemCrossesFlopThreshold) {
  // Big enough that GemmAcc actually forks bands (kMinParallelFlops);
  // still bitwise identical to the reference.
  ThreadPool pool(4);
  CheckAllVariants({200, 160, 96}, &pool);
}

TEST(KernelsGemmTest, ZeroSizedProblemsAreNoOps) {
  float sentinel = 42.0f;
  GemmAcc(nullptr, nullptr, &sentinel, 0, 0, 0, false, false);
  EXPECT_EQ(sentinel, 42.0f);
  // k = 0: C unchanged (the sum over p is empty).
  std::vector<float> c = {1.0f, 2.0f};
  GemmAcc(nullptr, nullptr, c.data(), 1, 2, 0, false, false);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

TEST(KernelsTest, SoftmaxRowsMatchesManual) {
  Rng rng(7);
  const int64_t rows = 5, h = 9;
  std::vector<float> x = RandomVec(rows * h, rng);
  std::vector<float> y(x.size());
  SoftmaxRows(x.data(), y.data(), rows, h);
  for (int64_t r = 0; r < rows; ++r) {
    float sum = 0;
    for (int64_t j = 0; j < h; ++j) {
      EXPECT_GT(y[r * h + j], 0.0f);
      sum += y[r * h + j];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(KernelsTest, LayerNormRowsNormalizes) {
  Rng rng(9);
  const int64_t rows = 4, h = 16;
  std::vector<float> x = RandomVec(rows * h, rng);
  std::vector<float> gamma(h, 1.0f), beta(h, 0.0f);
  std::vector<float> y(x.size()), xhat(x.size()), inv_std(rows);
  LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, rows, h, y.data(),
                xhat.data(), inv_std.data());
  for (int64_t r = 0; r < rows; ++r) {
    float mean = 0, var = 0;
    for (int64_t j = 0; j < h; ++j) mean += y[r * h + j];
    mean /= h;
    for (int64_t j = 0; j < h; ++j) {
      float d = y[r * h + j] - mean;
      var += d * d;
    }
    var /= h;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
    EXPECT_GT(inv_std[r], 0.0f);
  }
  // With identity affine, y == xhat.
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], xhat[i]);
}

TEST(KernelsTest, GeluRowsMatchesClosedForm) {
  constexpr float kC = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  std::vector<float> x = {-3.0f, -1.0f, -0.1f, 0.0f, 0.1f, 1.0f, 3.0f};
  std::vector<float> y(x.size());
  GeluRows(x.data(), y.data(), static_cast<int64_t>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    float v = x[i];
    float u = kC * (v + kA * v * v * v);
    // The vectorized kernel uses a polynomial tanh; it must stay within a
    // tight band of the libm closed form.
    EXPECT_NEAR(y[i], 0.5f * v * (1.0f + std::tanh(u)), 1e-6f);
  }
}

TEST(KernelsTest, GeluRowsTailMatchesFullVector) {
  // The masked tail must produce byte-identical results to the same
  // elements computed inside a full 8-lane vector.
  std::vector<float> x(16);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = -4.0f + 0.53f * static_cast<float>(i);
  }
  std::vector<float> full(16), prefix(11);
  GeluRows(x.data(), full.data(), 16);
  GeluRows(x.data(), prefix.data(), 11);  // 8-lane vector + 3-lane tail
  for (size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], full[i]);
}

TEST(KernelsTest, SoftmaxRowsWidthIndependentOfRowCount) {
  // A row's softmax must depend only on that row's bytes, not on how many
  // rows share the call — the row-stability byte contract.
  std::vector<float> x = {0.3f, -1.2f, 2.5f, 0.0f, 1.7f, -0.4f, 0.9f,
                          4.1f, -2.2f, 0.6f, 1.1f, -0.7f, 3.3f};
  const int64_t h = static_cast<int64_t>(x.size());
  std::vector<float> solo(x.size());
  SoftmaxRows(x.data(), solo.data(), 1, h);
  std::vector<float> batch_in;
  for (int r = 0; r < 3; ++r) batch_in.insert(batch_in.end(), x.begin(), x.end());
  std::vector<float> batch_out(batch_in.size());
  SoftmaxRows(batch_in.data(), batch_out.data(), 3, h);
  for (int r = 0; r < 3; ++r) {
    for (int64_t j = 0; j < h; ++j) {
      EXPECT_EQ(batch_out[static_cast<size_t>(r * h + j)], solo[static_cast<size_t>(j)]);
    }
  }
}

TEST(KernelsTest, SpanHelpers) {
  std::vector<float> a = {1, 2, 3}, b = {10, 20, 30}, y(3);
  AddSpan(a.data(), b.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{11, 22, 33}));
  SubSpan(b.data(), a.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{9, 18, 27}));
  MulSpan(a.data(), b.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{10, 40, 90}));
  ScaleSpan(a.data(), 2.0f, y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{2, 4, 6}));
  std::vector<float> acc = {1, 1, 1};
  AccumulateSpan(a.data(), acc.data(), 3);
  EXPECT_EQ(acc, (std::vector<float>{2, 3, 4}));
  AxpySpan(-1.0f, a.data(), acc.data(), 3);
  EXPECT_EQ(acc, (std::vector<float>{1, 1, 1}));
  MulAccumulateSpan(a.data(), b.data(), acc.data(), 3);
  EXPECT_EQ(acc, (std::vector<float>{11, 41, 91}));
}

}  // namespace
}  // namespace taste::tensor::kernels
