// Per-inference-thread execution context for the tensor substrate.
//
// An ExecContext bundles the three serving-time resources the kernel layer
// can exploit:
//
//  * a BufferPool that recycles forward-activation buffers (a Transformer
//    forward allocates the same handful of shapes over and over; the pool
//    turns those mallocs + page faults into free-list pops),
//  * an optional intra-op ThreadPool handed to the GEMM kernels for
//    row-partitioned parallelism (byte-identical to serial kernels: a C
//    row's bits do not depend on which task computes it, see
//    tensor/kernels.h),
//  * per-op timing counters (gated on Options::profile so the hooks cost
//    nothing when off).
//
// Ownership rules (DESIGN.md §6):
//  * An ExecContext is bound to ONE thread at a time via ScopedExecContext;
//    it is not safe to bind the same context on two threads concurrently
//    (the stats counters and scratch state are unsynchronized by design).
//  * Tensors allocated under a context share ownership of its BufferPool:
//    a tensor may outlive the context (e.g. latents parked in the
//    LatentCache) and still return its buffer to the pool — which stays
//    alive until the last such tensor dies — from whatever thread drops
//    the last reference. The pool itself is thread-safe.
//  * The intra-op pool must never be the pool the current task runs on,
//    or the fork/join inside GemmAcc can deadlock. PipelineExecutor gives
//    every TP2 infer worker its own context (and own intra-op pool) for
//    exactly this reason.
//
// A null / unbound context preserves the historical behaviour exactly:
// heap allocation per tensor, serial kernels, no timing.

#ifndef TASTE_TENSOR_EXEC_CONTEXT_H_
#define TASTE_TENSOR_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"

namespace taste {
class ThreadPool;
}

namespace taste::tensor {

/// Thread-safe free-list of float buffers keyed by exact element count.
/// Model forwards request identical shapes every call, so exact-size
/// bucketing reuses essentially every buffer after the first table.
class BufferPool {
 public:
  struct Stats {
    int64_t acquires = 0;   // total Acquire() calls
    int64_t reuses = 0;     // acquires served from the free list
    int64_t releases = 0;   // buffers returned (not dropped)
    int64_t bytes_pooled = 0;  // bytes currently parked in the free list
  };

  /// `max_bytes` caps the bytes parked in the free list; releases beyond
  /// the cap simply free the buffer.
  explicit BufferPool(int64_t max_bytes = 256ll << 20);

  /// A zero-filled buffer of exactly `n` elements (reused when possible).
  std::vector<float> Acquire(size_t n);

  /// Returns a buffer to the free list (or drops it past the byte cap).
  void Release(std::vector<float> buf);

  Stats stats() const;

 private:
  const int64_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<size_t, std::vector<std::vector<float>>> free_;
  Stats stats_;
};

/// Per-op timing accumulated by the ops layer when profiling is on.
struct OpTiming {
  int64_t calls = 0;
  double ms = 0.0;
};

struct ExecStats {
  OpTiming gemm;
  OpTiming quant_gemm;  // int8 QuantLinear forwards (P2 int8 mode)
  OpTiming softmax;
  OpTiming layernorm;
  OpTiming gelu;
  BufferPool::Stats pool;
};

/// Numeric path of the P2 content tower under this context. The metadata
/// tower (P1) and the latent cache ALWAYS run fp32 — kInt8 only takes
/// effect inside a ScopedQuantRegion, which the ADTD content forward
/// installs — so cached latents stay byte-stable across dtype modes.
enum class P2Dtype : uint8_t {
  kFp32 = 0,
  kInt8 = 1,
};

inline const char* P2DtypeName(P2Dtype d) {
  return d == P2Dtype::kInt8 ? "int8" : "fp32";
}

class ExecContext {
 public:
  struct Options {
    /// Recycle forward-activation buffers through a BufferPool.
    bool use_buffer_pool = true;
    /// Record per-op timings (kernel wall time) into stats().
    bool profile = false;
    /// Enforce no-grad: while this context is bound, ops never record
    /// autograd edges even outside a NoGradGuard. Serving contexts set
    /// this so a forgotten guard cannot silently re-grow the tape.
    bool no_grad = false;
    /// Number of intra-op worker threads to own (<= 1 = serial kernels).
    /// Ignored when `intra_op_pool` is supplied.
    int intra_op_threads = 0;
    /// Externally owned intra-op pool (not owned; must outlive the
    /// context). Must be a dedicated pool, see the deadlock rule above.
    ThreadPool* intra_op_pool = nullptr;
    /// Numeric path for P2 content forwards executed under this context.
    /// kInt8 routes prepacked Linear layers through the int8 micro-kernel
    /// (tensor/quant.h) while inside a ScopedQuantRegion; everything else
    /// (P1, latents, epilogues) stays fp32. Deterministic but not
    /// fp32-identical — see DESIGN.md §12.
    P2Dtype p2_dtype = P2Dtype::kFp32;
  };

  ExecContext();
  explicit ExecContext(const Options& options);
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const Options& options() const { return options_; }
  bool no_grad() const { return options_.no_grad; }
  bool profiling() const { return options_.profile; }

  /// The intra-op pool for kernels, or nullptr for serial execution.
  ThreadPool* intra_pool() const;

  /// The activation pool, or nullptr when pooling is disabled.
  const std::shared_ptr<BufferPool>& buffer_pool() const { return pool_; }

  /// Timing + pool counters since construction / the last ResetStats().
  ExecStats stats() const;
  void ResetStats();

  /// Adds `ms` to the timing bucket `t` (called by the ops layer).
  void RecordOp(OpTiming ExecStats::* t, double ms);

  /// Cooperative-cancellation token long-running forwards observe (the
  /// ADTD encoder loop checks cancelled() between layers, so one stuck
  /// table cannot hold an infer worker hostage past its deadline). Not
  /// owned; nullptr (the default) means never cancelled. Installed per
  /// stage via ScopedCancelToken; like the rest of the context, single-
  /// thread access only.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }
  bool cancelled() const { return cancel_ != nullptr && cancel_->Cancelled(); }

  /// True while a ScopedQuantRegion is active AND options().p2_dtype is
  /// kInt8: the window in which prepacked Linears take the int8 path. The
  /// region flag (rather than the option alone) is what keeps P1 /
  /// ForwardMetadata fp32 under an int8 serving context. Same
  /// single-thread access rule as the cancel token.
  bool quant_active() const { return quant_active_; }
  void set_quant_active(bool active) { quant_active_ = active; }

  /// The context bound to the calling thread, or nullptr.
  static ExecContext* Current();

 private:
  friend class ScopedExecContext;

  Options options_;
  std::shared_ptr<BufferPool> pool_;             // null when pooling is off
  std::unique_ptr<ThreadPool> owned_intra_pool_;  // null unless owned
  const CancelToken* cancel_ = nullptr;           // not owned
  bool quant_active_ = false;  // inside a ScopedQuantRegion w/ int8 dtype
  ExecStats stats_;
};

/// RAII binder making `ctx` the calling thread's current context. Binding
/// nullptr is a no-op (the previous binding, if any, stays active), so
/// layered Forward(…, ctx) signatures can forward a ctx default of nullptr
/// without clobbering an outer binding.
class ScopedExecContext {
 public:
  explicit ScopedExecContext(ExecContext* ctx);
  ~ScopedExecContext();
  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  ExecContext* prev_;
  bool bound_;
};

/// RAII install of a cancel token on a context, restoring the previous
/// token on destruction. A null context or null token is a no-op, so stage
/// code can pass both through unconditionally.
class ScopedCancelToken {
 public:
  ScopedCancelToken(ExecContext* ctx, const CancelToken* token)
      : ctx_(token != nullptr ? ctx : nullptr),
        prev_(ctx_ != nullptr ? ctx_->cancel_token() : nullptr) {
    if (ctx_ != nullptr) ctx_->set_cancel_token(token);
  }
  ~ScopedCancelToken() {
    if (ctx_ != nullptr) ctx_->set_cancel_token(prev_);
  }
  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  ExecContext* ctx_;
  const CancelToken* prev_;
};

/// RAII marker for the P2 content-forward region: while alive, a context
/// whose options request kInt8 has quant_active() == true, and prepacked
/// Linear layers route through the int8 micro-kernel. Installed by
/// AdtdModel::ForwardContent only — never by the metadata tower — so the
/// dtype switch cannot leak into P1 or the latent cache. A null context is
/// a no-op.
class ScopedQuantRegion {
 public:
  explicit ScopedQuantRegion(ExecContext* ctx)
      : ctx_(ctx), prev_(ctx != nullptr && ctx->quant_active()) {
    if (ctx_ != nullptr) {
      ctx_->set_quant_active(ctx_->options().p2_dtype == P2Dtype::kInt8);
    }
  }
  ~ScopedQuantRegion() {
    if (ctx_ != nullptr) ctx_->set_quant_active(prev_);
  }
  ScopedQuantRegion(const ScopedQuantRegion&) = delete;
  ScopedQuantRegion& operator=(const ScopedQuantRegion&) = delete;

 private:
  ExecContext* ctx_;
  bool prev_;
};

}  // namespace taste::tensor

#endif  // TASTE_TENSOR_EXEC_CONTEXT_H_
