// Pipelined execution of the TASTE framework — Algorithm 1 of the paper.
//
// Each table contributes four stages, in order:
//   P1-prep (S1, I/O+CPU) -> P1-infer (S2, "GPU") ->
//   P2-prep (S1)          -> P2-infer (S2)
// with P2 stages skipped when P1 decided every column.
//
// Two thread pools process the two stage kinds: TP1 runs data-preparation
// stages (they block on simulated network latency), TP2 runs inference
// stages (they burn compute). The scheduler repeatedly polls the first
// ELIGIBLE stage of the right kind — a stage is eligible when all previous
// stages of the same table have finished — and dispatches it whenever its
// pool has a free slot, exactly as in the paper's pseudocode. Multiple
// tables are therefore in flight simultaneously, overlapping I/O waits
// with inference.
//
// Failure isolation: one table's failure never sinks the batch. A failed
// stage is retried on its own pool while its error is transient (on top of
// the detector's call-level retries); a permanently failed table is parked
// with a sticky per-table Status while every other table runs to
// completion. RunBatch() surfaces the partial results; the legacy Run()
// keeps the historical all-or-nothing contract on top of it.

#ifndef TASTE_PIPELINE_SCHEDULER_H_
#define TASTE_PIPELINE_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "clouddb/database.h"
#include "common/deadline.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/taste_detector.h"

namespace taste::pipeline {

/// Load shedding at the batch edge (DESIGN.md §8). Disabled by default:
/// every table is admitted and the executor behaves exactly as before.
struct AdmissionPolicy {
  bool enabled = false;
  /// Tables concurrently in flight (first stage dispatched, not yet
  /// terminal). Further tables wait in the admission queue.
  int max_inflight_tables = 4;
  /// Tables allowed to wait behind the in-flight set. A batch larger than
  /// max_inflight_tables + max_queued_tables sheds the excess tables at
  /// batch entry with kUnavailable (deterministically: the input-order
  /// tail), so overload surfaces immediately instead of queueing without
  /// bound.
  int max_queued_tables = 8;
  /// When > 0, a queued table still waiting for its first dispatch after
  /// this many wall-clock ms is shed with kUnavailable instead of being
  /// started late. 0 disables the wait bound (queued tables only shed via
  /// max_queued_tables). Wall-clock dependent — keep 0 where determinism
  /// matters (the chaos harness does).
  double max_queue_wait_ms = 0.0;
};

struct PipelineOptions {
  int prep_threads = 2;   // |TP1|
  int infer_threads = 2;  // |TP2|
  bool pipelined = true;  // false = paper's "sequential mode" baseline
  /// Intra-op GEMM workers EACH TP2 infer worker may own (via its private
  /// ExecContext), composing intra-op with inter-table parallelism. The
  /// executor clamps the value so infer_threads * intra_op_threads never
  /// exceeds the hardware concurrency (see EffectiveIntraOpThreads);
  /// <= 1 means serial kernels — the default, byte-identical to the
  /// historical behaviour.
  int intra_op_threads = 0;
  /// Pipeline-level re-runs of a failed stage while its error is transient
  /// (the re-run is dispatched back to the stage's own pool). These sit on
  /// top of whatever call-level retries the detector's ResilienceOptions
  /// configure; 0 disables.
  int max_stage_retries = 1;
  /// Retry policy for acquiring the prep pool's database connections
  /// (transient connect failures). A connection that still cannot be
  /// opened after these attempts falls back to the infallible legacy
  /// connect path so the batch can always run.
  RetryPolicy connect_retry;
  /// Per-table latency budget in milliseconds, anchored at batch entry
  /// (every table of the batch shares the same absolute expiry instant).
  /// 0 disables deadlines entirely — byte-identical legacy behaviour.
  /// > 0 arms the budget; < 0 produces an already-expired deadline (a
  /// deterministic hook for tests and the chaos harness). On expiry a
  /// table whose P1 classification finished degrades its remaining
  /// uncertain columns to the metadata-only path (outcome kDegraded with
  /// an OK status); a table still inside P1 parks with kDeadlineExceeded
  /// (outcome kExpired).
  double deadline_ms = 0.0;
  /// Optional external cancellation for the whole batch (not owned; must
  /// outlive the run). Composes with deadline_ms: tables observe whichever
  /// fires first.
  const CancelToken* cancel = nullptr;
  /// Admission control / load shedding (off by default).
  AdmissionPolicy admission;
  /// Numeric mode of the P2 content tower (DESIGN.md §12). kInt8 runs the
  /// encoder/classifier Linears through the prepacked int8 kernels
  /// (requires AdtdModel::PrepackQuantWeights at load; falls back to fp32
  /// per-layer when a weight was never prepacked). P1 metadata forwards
  /// and the latent cache stay fp32 in both modes, so cache bytes are
  /// dtype-independent. Int8 outputs are deterministic (byte-identical
  /// across runs, replicas, and intra-op pool sizes) but NOT byte-identical
  /// to fp32 — the accuracy gate (tools/accuracy_gate.py) bounds the F1
  /// delta instead.
  tensor::P2Dtype p2_dtype = tensor::P2Dtype::kFp32;
};

/// Timing/throughput of one Run()/RunBatch().
struct PipelineRunStats {
  double wall_ms = 0.0;
  int tables_processed = 0;
  int tables_entered_p2 = 0;
  /// High-water mark of tables concurrently in flight (first stage
  /// dispatched, not yet terminal). With admission enabled this never
  /// exceeds AdmissionPolicy::max_inflight_tables.
  int max_tables_in_flight = 0;
};

/// Fault-handling activity of one Run()/RunBatch(). All zeros on a
/// fault-free run.
struct ResilienceStats {
  int64_t retries = 0;           // detector call-level retries
  int64_t stage_retries = 0;     // pipeline-level stage re-runs
  int64_t connect_retries = 0;   // connection-pool connect retries
  int64_t breaker_trips = 0;     // circuit breakers tripped open
  int64_t breaker_short_circuits = 0;  // calls rejected by open breakers
  int64_t degraded_columns = 0;  // columns served metadata-only
  int64_t failed_columns = 0;    // columns with no usable prediction
  int64_t failed_tables = 0;     // tables with outcome kFailed
  int64_t deadline_misses = 0;   // retry loops that exhausted their budget
  int64_t shed_tables = 0;       // rejected by admission control
  int64_t expired_tables = 0;    // deadline fired before P1 finished
  int64_t degraded_tables = 0;   // finished OK with >= 1 degraded column

  /// Field-wise accumulation, used by the multi-process router to fold the
  /// per-replica legs of a scattered batch into one batch-level view.
  void Merge(const ResilienceStats& other) {
    retries += other.retries;
    stage_retries += other.stage_retries;
    connect_retries += other.connect_retries;
    breaker_trips += other.breaker_trips;
    breaker_short_circuits += other.breaker_short_circuits;
    degraded_columns += other.degraded_columns;
    failed_columns += other.failed_columns;
    failed_tables += other.failed_tables;
    deadline_misses += other.deadline_misses;
    shed_tables += other.shed_tables;
    expired_tables += other.expired_tables;
    degraded_tables += other.degraded_tables;
  }
};

/// The single terminal state every table of a batch reaches exactly once.
enum class TableOutcome {
  kComplete = 0,  // OK status, no degraded columns
  kDegraded,      // OK status, >= 1 column served metadata-only
  kShed,          // rejected by admission control (kUnavailable status)
  kExpired,       // deadline/cancel fired before P1 finished classifying
  kFailed,        // any other non-OK terminal status
};

inline const char* TableOutcomeName(TableOutcome o) {
  switch (o) {
    case TableOutcome::kComplete:
      return "complete";
    case TableOutcome::kDegraded:
      return "degraded";
    case TableOutcome::kShed:
      return "shed";
    case TableOutcome::kExpired:
      return "expired";
    case TableOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

/// One table's outcome in a batch: the (possibly partial or degraded)
/// detection result plus the table's final status. On a non-OK status the
/// result holds whatever was produced before the failure (e.g. P1-only
/// columns marked kFailed); it is empty when P1 metadata never arrived.
struct TableRunResult {
  core::TableDetectionResult result;
  Status status;
  TableOutcome outcome = TableOutcome::kComplete;
};

/// Outcome of a whole batch, in input order.
struct BatchResult {
  std::vector<TableRunResult> tables;
  bool all_ok() const {
    for (const auto& t : tables) {
      if (!t.status.ok()) return false;
    }
    return true;
  }
};

/// The intra-op pool size each TP2 infer worker actually gets: the
/// requested PipelineOptions::intra_op_threads clamped so that
/// infer_threads * intra_op_threads <= hardware concurrency (no
/// oversubscription; DESIGN.md §6). Returns 0 when the request (or the
/// clamp) leaves no room for a pool — serial kernels.
int EffectiveIntraOpThreads(const PipelineOptions& options);

/// Runs a batch of tables (from one database, reusing its connections)
/// through a TasteDetector, pipelined or sequentially.
class PipelineExecutor {
 public:
  PipelineExecutor(const core::TasteDetector* detector,
                   clouddb::SimulatedDatabase* db, PipelineOptions options);

  /// Processes the batch with per-table failure isolation; every healthy
  /// table completes even when others fail. Results in input order.
  BatchResult RunBatch(const std::vector<std::string>& table_names);

  /// Legacy all-or-nothing API on top of RunBatch(): returns the results
  /// when every table succeeded, otherwise the first failing table's
  /// error. Fault-free behaviour is identical to the historical Run().
  Result<std::vector<core::TableDetectionResult>> Run(
      const std::vector<std::string>& table_names);

  /// Stats of the most recent Run()/RunBatch().
  const PipelineRunStats& stats() const { return stats_; }
  const ResilienceStats& resilience_stats() const { return resilience_; }

 private:
  void RunSequential(const std::vector<std::string>& table_names,
                     BatchResult* out);
  void RunPipelined(const std::vector<std::string>& table_names,
                    BatchResult* out);
  /// Folds per-table counters (and breaker trips) into resilience_.
  void FinalizeStats(const BatchResult& batch, int64_t trips_before);

  const core::TasteDetector* detector_;
  clouddb::SimulatedDatabase* db_;
  PipelineOptions options_;
  PipelineRunStats stats_;
  ResilienceStats resilience_;
};

}  // namespace taste::pipeline

#endif  // TASTE_PIPELINE_SCHEDULER_H_
