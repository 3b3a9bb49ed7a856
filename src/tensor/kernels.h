// Raw numeric kernels over float* spans — the autograd-free bottom layer of
// the tensor substrate.
//
// Everything in this header is a pure function of its arguments: no tape,
// no TensorImpl, no allocation visible to the caller (GEMM packing scratch
// is thread-local inside kernels.cc). The autograd shell in ops.cc calls
// these for BOTH the forward pass and the backward closures, so an
// optimization here speeds up training and serving alike.
//
// Determinism contract: GemmAcc accumulates each output element strictly in
// increasing-k order, seeded from C, regardless of blocking or thread
// count — so the serial blocked kernel and every parallel partitioning
// produce BITWISE identical results to each other. That self-consistency is
// what makes pipeline output byte-identical whatever ExecContext (pooled or
// heap, serial or intra-op parallel) is in effect. Stronger still, a C
// row's bits depend only on its own op(A) row and op(B) — NOT on m or on
// where the row sits inside M. The packed A panel is zero-padded to a whole
// number of register bands so every row, at every offset, runs the exact
// same micro-kernel instruction sequence; concatenating extra rows above or
// below leaves existing rows bitwise unchanged. Intra-op parallelism rests
// on this row-stability: a pool splits C's rows into bands, one task per
// band, so a row's offset inside its band (and the band's height) changes
// with the pool size — and the output bytes must not. Parity with the
// naive GemmAccRef is 1e-5 relative, not bitwise: the reference's rounding
// differs by accumulation seeding (transposed variants) and by how the
// compiler contracts mul+add to FMA in each loop shape. kernels_test
// checks exactly this split, and batching_diff_test's executor-vs-
// sequential runs are the end-to-end proof.

#ifndef TASTE_TENSOR_KERNELS_H_
#define TASTE_TENSOR_KERNELS_H_

#include <cstdint>

namespace taste {
class ThreadPool;
}

namespace taste::tensor::kernels {

// -- GEMM ---------------------------------------------------------------------

/// C += op(A) * op(B) where op(A) is (m,k) and op(B) is (k,n), C is (m,n)
/// row-major. If trans_a, A is stored as (k,m); if trans_b, B is stored as
/// (n,k). Naive triple-loop reference: kept as the parity oracle and as the
/// baseline the substrate bench compares against.
void GemmAccRef(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b);

/// Same contract as GemmAccRef, computed with cache blocking and panel
/// packing (transposition is absorbed by the packing step, so all four
/// variants share one register-blocked micro kernel). Results match
/// GemmAccRef to 1e-5 relative (see the determinism note above). When
/// `pool` is non-null and the problem is large enough, rows of C are
/// partitioned across the pool's workers (each worker packs its own
/// panels; the per-element accumulation order is unchanged, so results
/// stay bitwise identical to the serial kernel). `pool` must not be the
/// pool the caller is currently executing on, or the wait for row tasks
/// can deadlock.
void GemmAcc(const float* a, const float* b, float* c, int64_t m, int64_t n,
             int64_t k, bool trans_a, bool trans_b,
             ThreadPool* pool = nullptr);

// -- Row-wise normalization / softmax ----------------------------------------

/// y[r] = softmax(x[r]) over `h` for each of `rows` rows (max-subtracted).
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t h);

/// dx[r] += y[r] * (dy[r] - <dy[r], y[r]>) — softmax backward, accumulating.
void SoftmaxGradRows(const float* y, const float* dy, float* dx,
                     int64_t rows, int64_t h);

/// Per-row layer normalization with affine parameters gamma/beta (length h):
/// y = gamma * xhat + beta with xhat = (x - mean) / sqrt(var + eps).
/// `xhat` (rows*h) and `inv_std` (rows) are saved for the backward pass.
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, int64_t rows, int64_t h, float* y, float* xhat,
                   float* inv_std);

/// Layer-norm backward, accumulating into any non-null output:
/// dgamma[j] += sum_r dy[r,j]*xhat[r,j]; dbeta[j] += sum_r dy[r,j];
/// dx via the standard three-term normalized-input gradient.
void LayerNormGradRows(const float* gamma, const float* xhat,
                       const float* inv_std, const float* dy, int64_t rows,
                       int64_t h, float* dgamma, float* dbeta, float* dx);

// -- Activations --------------------------------------------------------------

/// y = gelu(x) (tanh approximation, as in BERT), elementwise over n.
void GeluRows(const float* x, float* y, int64_t n);
/// dx += gelu'(x) * dy, elementwise over n.
void GeluGradRows(const float* x, const float* dy, float* dx, int64_t n);

// -- Elementwise spans --------------------------------------------------------

/// y = a + b over n.
void AddSpan(const float* a, const float* b, float* y, int64_t n);
/// y = a - b over n.
void SubSpan(const float* a, const float* b, float* y, int64_t n);
/// y = a * b over n.
void MulSpan(const float* a, const float* b, float* y, int64_t n);
/// y = x * s over n.
void ScaleSpan(const float* x, float s, float* y, int64_t n);
/// dst += src over n (grad accumulation).
void AccumulateSpan(const float* src, float* dst, int64_t n);
/// dst += alpha * src over n.
void AxpySpan(float alpha, const float* src, float* dst, int64_t n);
/// dst += a * b elementwise over n (product-rule accumulation).
void MulAccumulateSpan(const float* a, const float* b, float* dst, int64_t n);

}  // namespace taste::tensor::kernels

#endif  // TASTE_TENSOR_KERNELS_H_
