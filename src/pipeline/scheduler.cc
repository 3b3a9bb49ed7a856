#include "pipeline/scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/stopwatch.h"
#include "obs/export.h"
#include "tensor/exec_context.h"

namespace taste::pipeline {

using core::TableDetectionResult;
using core::TasteDetector;

namespace {

/// Registry handles for the pipeline's serving metrics, resolved once.
/// Resolved eagerly by the executor constructor so every family appears in
/// a --metrics-out document even when its count is zero.
struct PipelineMetrics {
  obs::Histogram* batch_ms;
  obs::Histogram* table_ms;                // sequential mode, per table
  obs::Histogram* stage_ms[4];             // indexed by Stage (p1p..p2i)
  obs::Counter* tables;
  obs::Counter* tables_p2;
  obs::Counter* retries;
  obs::Counter* stage_retries;
  obs::Counter* connect_retries;
  obs::Counter* breaker_trips;
  obs::Counter* breaker_short_circuits;
  obs::Counter* degraded_columns;
  obs::Counter* failed_columns;
  obs::Counter* failed_tables;
  obs::Counter* deadline_misses;
  obs::Counter* tables_shed;
  obs::Counter* tables_expired;
  obs::Counter* tables_degraded;
  obs::Histogram* admitted_table_ms;  // first dispatch -> terminal state
  obs::Histogram* op_ms[5];  // gemm, quant_gemm, softmax, layernorm, gelu
  obs::Counter* op_calls[5];
  obs::Counter* pool_acquires;
  obs::Counter* pool_reuses;

  static PipelineMetrics& Get() {
    static PipelineMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      auto stage_hist = [&r](const char* stage) {
        return r.GetHistogram(
            obs::LabeledName("taste_pipeline_stage_ms", "stage", stage));
      };
      PipelineMetrics x;
      x.batch_ms = r.GetHistogram("taste_pipeline_batch_ms");
      x.table_ms = r.GetHistogram("taste_pipeline_table_ms");
      x.stage_ms[0] = stage_hist("p1_prep");
      x.stage_ms[1] = stage_hist("p1_infer");
      x.stage_ms[2] = stage_hist("p2_prep");
      x.stage_ms[3] = stage_hist("p2_infer");
      x.tables = r.GetCounter("taste_pipeline_tables_total");
      x.tables_p2 = r.GetCounter("taste_pipeline_tables_p2_total");
      x.retries = r.GetCounter("taste_retries_total");
      x.stage_retries = r.GetCounter("taste_stage_retries_total");
      x.connect_retries = r.GetCounter("taste_connect_retries_total");
      x.breaker_trips = r.GetCounter("taste_breaker_trips_total");
      x.breaker_short_circuits =
          r.GetCounter("taste_breaker_short_circuits_total");
      x.degraded_columns = r.GetCounter("taste_degraded_columns_total");
      x.failed_columns = r.GetCounter("taste_failed_columns_total");
      x.failed_tables = r.GetCounter("taste_failed_tables_total");
      x.deadline_misses = r.GetCounter("taste_deadline_misses_total");
      x.tables_shed = r.GetCounter("taste_tables_shed_total");
      x.tables_expired = r.GetCounter("taste_tables_expired_total");
      x.tables_degraded = r.GetCounter("taste_tables_degraded_total");
      x.admitted_table_ms = r.GetHistogram("taste_admitted_table_ms");
      const char* ops[5] = {"gemm", "quant_gemm", "softmax", "layernorm",
                            "gelu"};
      for (int i = 0; i < 5; ++i) {
        x.op_ms[i] =
            r.GetHistogram(obs::LabeledName("taste_op_ms", "op", ops[i]));
        x.op_calls[i] = r.GetCounter(
            obs::LabeledName("taste_op_calls_total", "op", ops[i]));
      }
      x.pool_acquires = r.GetCounter("taste_pool_acquires_total");
      x.pool_reuses = r.GetCounter("taste_pool_reuses_total");
      return x;
    }();
    return m;
  }
};

/// Folds one serving context's per-op timings and pool counters into the
/// registry. Contexts live for exactly one RunBatch, so each fold
/// contributes that batch's totals: op histograms get one observation per
/// (context, op) — the op's cumulative ms in that batch.
void FoldExecStats(const tensor::ExecContext& ctx) {
  if (!obs::MetricsEnabled()) return;
  PipelineMetrics& m = PipelineMetrics::Get();
  const tensor::ExecStats s = ctx.stats();
  const tensor::OpTiming* ops[5] = {&s.gemm, &s.quant_gemm, &s.softmax,
                                    &s.layernorm, &s.gelu};
  for (int i = 0; i < 5; ++i) {
    m.op_calls[i]->Inc(ops[i]->calls);
    if (ops[i]->calls > 0) m.op_ms[i]->Observe(ops[i]->ms);
  }
  m.pool_acquires->Inc(s.pool.acquires);
  m.pool_reuses->Inc(s.pool.reuses);
}

}  // namespace

PipelineExecutor::PipelineExecutor(const TasteDetector* detector,
                                   clouddb::SimulatedDatabase* db,
                                   PipelineOptions options)
    : detector_(detector), db_(db), options_(options) {
  TASTE_CHECK(detector_ != nullptr && db_ != nullptr);
  TASTE_CHECK(options_.prep_threads >= 1 && options_.infer_threads >= 1);
  PipelineMetrics::Get();  // register the pipeline metric families eagerly
}

int EffectiveIntraOpThreads(const PipelineOptions& options) {
  if (options.intra_op_threads <= 1) return 0;
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Each of the infer_threads TP2 workers would own a pool this size;
  // never let the product oversubscribe the machine.
  const int budget = std::max(1, hw / std::max(1, options.infer_threads));
  const int clamped = std::min(options.intra_op_threads, budget);
  return clamped > 1 ? clamped : 0;
}

BatchResult PipelineExecutor::RunBatch(
    const std::vector<std::string>& table_names) {
  stats_ = PipelineRunStats();
  resilience_ = ResilienceStats();
  const int64_t trips_before =
      detector_->breakers() != nullptr ? detector_->breakers()->TotalTrips()
                                       : 0;
  TASTE_SPAN("pipeline.run_batch");
  Stopwatch sw;
  BatchResult batch;
  batch.tables.resize(table_names.size());
  if (options_.admission.enabled) {
    // Deterministic entry shedding: the batch may carry at most
    // max_inflight + max_queued tables; the input-order tail past that
    // bound is rejected up front with kUnavailable, before any work (or
    // wall-clock nondeterminism) touches it.
    const size_t limit =
        static_cast<size_t>(std::max(0, options_.admission.max_inflight_tables)) +
        static_cast<size_t>(std::max(0, options_.admission.max_queued_tables));
    for (size_t i = limit; i < table_names.size(); ++i) {
      batch.tables[i].status = Status::Unavailable(
          "admission queue full: table " + table_names[i] +
          " shed at batch entry");
      batch.tables[i].outcome = TableOutcome::kShed;
      batch.tables[i].result.table_name = table_names[i];
    }
  }
  if (options_.pipelined) {
    RunPipelined(table_names, &batch);
  } else {
    RunSequential(table_names, &batch);
  }
  stats_.wall_ms = sw.ElapsedMillis();
  stats_.tables_processed = static_cast<int>(table_names.size());
  FinalizeStats(batch, trips_before);
  return batch;
}

Result<std::vector<TableDetectionResult>> PipelineExecutor::Run(
    const std::vector<std::string>& table_names) {
  BatchResult batch = RunBatch(table_names);
  std::vector<TableDetectionResult> results;
  results.reserve(batch.tables.size());
  for (auto& t : batch.tables) {
    if (!t.status.ok()) return t.status;
    results.push_back(std::move(t.result));
  }
  return results;
}

void PipelineExecutor::FinalizeStats(const BatchResult& batch,
                                     int64_t trips_before) {
  for (const auto& t : batch.tables) {
    const TableDetectionResult& r = t.result;
    resilience_.retries += r.retries;
    resilience_.breaker_short_circuits += r.breaker_short_circuits;
    resilience_.degraded_columns += r.degraded_columns;
    resilience_.failed_columns += r.failed_columns;
    resilience_.deadline_misses += r.deadline_misses;
    switch (t.outcome) {
      case TableOutcome::kShed:
        ++resilience_.shed_tables;
        break;
      case TableOutcome::kExpired:
        ++resilience_.expired_tables;
        break;
      case TableOutcome::kFailed:
        ++resilience_.failed_tables;
        break;
      case TableOutcome::kDegraded:
        ++resilience_.degraded_tables;
        break;
      case TableOutcome::kComplete:
        break;
    }
    if (t.status.ok() && r.columns_scanned > 0) {
      ++stats_.tables_entered_p2;
    }
  }
  if (detector_->breakers() != nullptr) {
    resilience_.breaker_trips =
        detector_->breakers()->TotalTrips() - trips_before;
  }
  if (obs::MetricsEnabled()) {
    // Migrate the batch's ResilienceStats onto the registry: the registry
    // accumulates across batches, the struct stays per-batch.
    PipelineMetrics& m = PipelineMetrics::Get();
    m.batch_ms->Observe(stats_.wall_ms);
    m.tables->Inc(stats_.tables_processed);
    m.tables_p2->Inc(stats_.tables_entered_p2);
    m.retries->Inc(resilience_.retries);
    m.stage_retries->Inc(resilience_.stage_retries);
    m.connect_retries->Inc(resilience_.connect_retries);
    m.breaker_trips->Inc(resilience_.breaker_trips);
    m.breaker_short_circuits->Inc(resilience_.breaker_short_circuits);
    m.degraded_columns->Inc(resilience_.degraded_columns);
    m.failed_columns->Inc(resilience_.failed_columns);
    m.failed_tables->Inc(resilience_.failed_tables);
    m.deadline_misses->Inc(resilience_.deadline_misses);
    m.tables_shed->Inc(resilience_.shed_tables);
    m.tables_expired->Inc(resilience_.expired_tables);
    m.tables_degraded->Inc(resilience_.degraded_tables);
  }
}

namespace {

/// The terminal state of one finished (non-shed) table. `cancel_fired` is
/// whether the table's budget/cancel token had fired at finish time; a
/// genuine unrelated fault on an expired table still counts as kFailed
/// (only deadline/cancel status codes route to kExpired).
TableOutcome DeriveOutcome(const Status& status,
                           const core::TableDetectionResult& result,
                           bool cancel_fired) {
  if (!status.ok()) {
    const bool budget_status =
        status.code() == StatusCode::kDeadlineExceeded ||
        status.code() == StatusCode::kCancelled;
    return (cancel_fired && budget_status) ? TableOutcome::kExpired
                                           : TableOutcome::kFailed;
  }
  return result.degraded_columns > 0 ? TableOutcome::kDegraded
                                     : TableOutcome::kComplete;
}

}  // namespace

void PipelineExecutor::RunSequential(
    const std::vector<std::string>& table_names, BatchResult* out) {
  // One connection, tables and stages strictly one after another — the
  // execution mode of prior work the paper compares against (Sec. 5). A
  // failing table is recorded and skipped; the rest of the batch runs.
  // One serving context for the whole batch: activation buffers are reused
  // across tables, and no_grad structurally forbids tape construction.
  tensor::ExecContext::Options ctx_options;
  ctx_options.no_grad = true;
  ctx_options.profile = obs::MetricsEnabled();
  ctx_options.intra_op_threads = EffectiveIntraOpThreads(options_);
  ctx_options.p2_dtype = options_.p2_dtype;
  tensor::ExecContext ctx(ctx_options);
  auto conn = db_->Connect();
  const bool metrics = obs::MetricsEnabled();
  // The batch latency budget (shared absolute expiry, as in the pipelined
  // mode). Null token = deadlines off = exact legacy behaviour.
  const bool budget_active =
      options_.deadline_ms != 0.0 || options_.cancel != nullptr;
  std::optional<CancelToken> token;
  if (budget_active) {
    token.emplace(options_.deadline_ms != 0.0
                      ? Deadline::AfterMillis(options_.deadline_ms)
                      : Deadline(),
                  options_.cancel);
    conn->SetDeadline(token->deadline());
  }
  for (size_t i = 0; i < table_names.size(); ++i) {
    if (out->tables[i].outcome == TableOutcome::kShed) continue;
    TASTE_SPAN("pipeline.detect_table");
    Stopwatch table_sw;
    auto res = detector_->DetectTable(conn.get(), table_names[i], &ctx,
                                      token ? &*token : nullptr);
    if (metrics) {
      PipelineMetrics::Get().table_ms->Observe(table_sw.ElapsedMillis());
    }
    if (res.ok()) {
      out->tables[i].result = std::move(*res);
    } else {
      out->tables[i].status = res.status();
    }
    out->tables[i].outcome =
        DeriveOutcome(out->tables[i].status, out->tables[i].result,
                      token && token->Cancelled());
    if (stats_.max_tables_in_flight == 0) stats_.max_tables_in_flight = 1;
  }
  FoldExecStats(ctx);
}

namespace {

/// Lifecycle of one table through Algorithm 1's four stages.
enum class Stage { kP1Prep = 0, kP1Infer, kP2Prep, kP2Infer, kDone };

bool IsPrepStage(Stage s) {
  return s == Stage::kP1Prep || s == Stage::kP2Prep;
}

struct TableState {
  std::string name;
  TasteDetector::Job job;
  Stage next = Stage::kP1Prep;
  bool in_flight = false;
  int stage_attempts = 0;  // failed tries of the CURRENT stage
  Status error;            // sticky first (permanent) error
  /// The table's budget/cancel token (points at the batch token when the
  /// run has one; nullptr = deadlines off, exact legacy behaviour).
  const CancelToken* cancel = nullptr;
  bool started = false;   // first stage dispatched (the table was admitted)
  bool shed = false;      // rejected by admission (entry or queue-wait)
  bool expired = false;   // parked by deadline/cancel before P1 finished
  double admit_ms = 0.0;  // TraceNowMs() at first dispatch
};

/// A small free-list of connections shared by the prep workers. Connect
/// faults are retried; if the database stays unreachable the pool falls
/// back to the infallible legacy connect so a batch can always run.
class ConnectionPool {
 public:
  ConnectionPool(clouddb::SimulatedDatabase* db, int n,
                 const RetryPolicy& connect_retry, int64_t* retries_out) {
    for (int i = 0; i < n; ++i) {
      RetryObservation obs;
      auto conn = RetryCall(
          connect_retry, /*salt=*/static_cast<uint64_t>(i) + 1,
          /*sleep_ms=*/{}, [db] { return db->TryConnect(); }, &obs);
      *retries_out += obs.retries;
      free_.push_back(conn.ok() ? std::move(*conn) : db->Connect());
    }
  }
  std::unique_ptr<clouddb::Connection> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    TASTE_CHECK(!free_.empty());
    auto conn = std::move(free_.back());
    free_.pop_back();
    return conn;
  }
  void Release(std::unique_ptr<clouddb::Connection> conn) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(conn));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<clouddb::Connection>> free_;
};

}  // namespace

void PipelineExecutor::RunPipelined(
    const std::vector<std::string>& table_names, BatchResult* out) {
  static const bool kDebug = std::getenv("TASTE_PIPELINE_DEBUG") != nullptr;
  // NOTE: mu/cv/states are declared BEFORE the thread pools so that pool
  // destruction (which joins workers, including any still inside their
  // task-complete callback) happens while they are alive.
  std::mutex mu;
  std::condition_variable cv;
  Stopwatch batch_sw;  // anchor for deadlines and queue-wait shedding

  // The batch latency budget: one token whose deadline is anchored here at
  // batch entry; every table observes the same absolute expiry (and the
  // caller's external cancel, when given). No token when both knobs are
  // off — table states keep a null cancel and every code path below is
  // byte-identical to the legacy executor.
  const bool budget_active =
      options_.deadline_ms != 0.0 || options_.cancel != nullptr;
  std::optional<CancelToken> batch_token;
  if (budget_active) {
    batch_token.emplace(options_.deadline_ms != 0.0
                            ? Deadline::AfterMillis(options_.deadline_ms)
                            : Deadline(),
                        options_.cancel);
  }

  std::vector<TableState> states(table_names.size());
  for (size_t i = 0; i < table_names.size(); ++i) {
    states[i].name = table_names[i];
    states[i].cancel = batch_token ? &*batch_token : nullptr;
    states[i].job.cancel = states[i].cancel;
    if (out->tables[i].outcome == TableOutcome::kShed) {
      // Shed at batch entry (RunBatch); never enters the scheduler loop.
      states[i].next = Stage::kDone;
      states[i].shed = true;
      states[i].error = out->tables[i].status;
    }
  }

  // Each TP2 infer worker owns a private ExecContext (buffer pool, no-grad
  // enforcement, optionally an intra-op GEMM pool of its own). Owning the
  // intra-op pool per worker keeps intra-op parallelism composable with
  // inter-table parallelism: a worker never forks GEMM bands onto the pool
  // it runs on (the deadlock rule of tensor/exec_context.h), and
  // EffectiveIntraOpThreads caps the total thread product. Declared before
  // the pools so contexts outlive every worker task.
  const int intra_threads = EffectiveIntraOpThreads(options_);
  const tensor::P2Dtype p2_dtype = options_.p2_dtype;
  std::mutex ctx_mu;
  std::unordered_map<std::thread::id, std::unique_ptr<tensor::ExecContext>>
      infer_contexts;
  auto infer_context = [&ctx_mu, &infer_contexts, intra_threads, p2_dtype] {
    std::lock_guard<std::mutex> lock(ctx_mu);
    auto& slot = infer_contexts[std::this_thread::get_id()];
    if (slot == nullptr) {
      tensor::ExecContext::Options ctx_options;
      ctx_options.no_grad = true;
      ctx_options.profile = obs::MetricsEnabled();
      ctx_options.intra_op_threads = intra_threads;
      ctx_options.p2_dtype = p2_dtype;
      slot = std::make_unique<tensor::ExecContext>(ctx_options);
    }
    return slot.get();
  };

  // max_extra_queued = 0: TrySubmit admits a stage only when a worker slot
  // is free, so the dispatch gate is exactly Algorithm 1's "pool not full".
  ThreadPool tp1(static_cast<size_t>(options_.prep_threads),
                 /*max_extra_queued=*/0);
  ThreadPool tp2(static_cast<size_t>(options_.infer_threads),
                 /*max_extra_queued=*/0);
  // Connections are created once and reused across the batch (the paper
  // recommends batching tables per database to amortize connection cost).
  ConnectionPool connections(db_, options_.prep_threads,
                             options_.connect_retry,
                             &resilience_.connect_retries);

  // The scheduler blocks on `cv` when both pools are full or no stage is
  // eligible. Stage completion notifies under `mu` (in run_stage below),
  // but that happens BEFORE the worker's pool slot is released — so a
  // "pool has room again" event also needs a notification or the scheduler
  // could sleep forever staring at a stale Full(). The pools' task-complete
  // callbacks fire after the slot is free; taking `mu` there serializes the
  // notify against the scheduler's check-then-wait, closing the race.
  auto wake_scheduler = [&mu, &cv] {
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  };
  tp1.SetTaskCompleteCallback(wake_scheduler);
  tp2.SetTaskCompleteCallback(wake_scheduler);

  // Tables concurrently in flight (started, not yet terminal) — the value
  // AdmissionPolicy::max_inflight_tables caps. Guarded by `mu`.
  int inflight_tables = 0;

  // Marks one table terminal (its `next` just became kDone). Called under
  // `mu`, exactly once per started table: releases its in-flight slot and
  // surfaces its admitted-lifetime span/histogram observation.
  auto table_done = [&](TableState& st) {
    if (!st.started) return;
    --inflight_tables;
    if (obs::TracingEnabled() || obs::MetricsEnabled()) {
      const double dur = obs::TraceNowMs() - st.admit_ms;
      obs::EmitSpan("pipeline.table", st.admit_ms, dur);
      if (obs::MetricsEnabled()) {
        PipelineMetrics::Get().admitted_table_ms->Observe(dur);
      }
    }
  };

  // Deadline-expiry routing for one table, under `mu`. A table whose P1
  // classification finished serves its remaining uncertain columns
  // metadata-only and terminates OK (degraded); one still inside P1 parks
  // with the token's status. Columns P2 already decided keep their
  // content-based predictions either way.
  auto expire_table = [&](TableState& st) {
    if (TasteDetector::P1Complete(st.job)) {
      detector_->DegradeRemainingToMetadataOnly(&st.job);
      st.error = Status::OK();
    } else {
      st.error = st.cancel->ToStatus("table " + st.name);
      st.expired = true;
    }
    st.next = Stage::kDone;
    table_done(st);
  };

  // Runs one stage of one table outside the lock, then advances its state.
  // A transiently failed stage is re-queued (up to max_stage_retries) by
  // leaving `next` pointing at the same stage — the scheduler dispatches
  // the re-run on the stage's own pool. Permanent failures park the table
  // with a sticky error; the rest of the batch is unaffected.
  auto run_stage = [&](size_t idx, Stage stage) {
    static const char* kStageSpanNames[] = {
        "pipeline.p1_prep", "pipeline.p1_infer", "pipeline.p2_prep",
        "pipeline.p2_infer"};
    TableState& st = states[idx];
    Status status;
    // kDone is never dispatched; clamp keeps the name index safe anyway.
    const int stage_ix = std::min(static_cast<int>(stage), 3);
    {
      obs::Span span(kStageSpanNames[stage_ix]);
      Stopwatch stage_sw;
      switch (stage) {
        case Stage::kP1Prep: {
          auto conn = connections.Acquire();
          if (st.cancel != nullptr) conn->SetDeadline(st.cancel->deadline());
          status = detector_->PrepareP1(conn.get(), st.name, &st.job);
          if (st.cancel != nullptr) conn->SetDeadline(Deadline());
          connections.Release(std::move(conn));
          break;
        }
        case Stage::kP1Infer:
          status = detector_->InferP1(&st.job, infer_context());
          break;
        case Stage::kP2Prep: {
          auto conn = connections.Acquire();
          if (st.cancel != nullptr) conn->SetDeadline(st.cancel->deadline());
          status = detector_->PrepareP2(conn.get(), &st.job);
          if (st.cancel != nullptr) conn->SetDeadline(Deadline());
          connections.Release(std::move(conn));
          break;
        }
        case Stage::kP2Infer:
          status = detector_->InferP2(&st.job, infer_context());
          break;
        case Stage::kDone:
          break;
      }
      if (obs::MetricsEnabled()) {
        PipelineMetrics::Get().stage_ms[stage_ix]->Observe(
            stage_sw.ElapsedMillis());
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (kDebug) {
      std::fprintf(stderr, "[pipe] done t=%zu stage=%d ok=%d\n", idx,
                   static_cast<int>(stage), status.ok());
    }
    st.in_flight = false;
    if (!status.ok()) {
      if (st.cancel != nullptr && st.cancel->Cancelled()) {
        // The table's own budget fired. This MUST be checked before the
        // transient-retry branch: kDeadlineExceeded is transient for the
        // per-call server timeouts the fault injector raises, but a table
        // whose batch deadline expired has no budget left to retry with —
        // it degrades (P1 done) or parks (P1 incomplete) right here.
        expire_table(st);
      } else if (IsTransient(status) &&
                 st.stage_attempts < options_.max_stage_retries) {
        // Retry the same stage on the same pool. P1-prep retries restart
        // from a clean job so chunks are not encoded twice.
        ++st.stage_attempts;
        ++resilience_.stage_retries;
        if (stage == Stage::kP1Prep) {
          st.job = TasteDetector::Job();
          st.job.cancel = st.cancel;  // the reset wiped the token
        }
        st.next = stage;
      } else {
        st.error = status;
        st.next = Stage::kDone;
        table_done(st);
      }
    } else {
      st.stage_attempts = 0;
      switch (stage) {
        case Stage::kP1Prep:
          st.next = Stage::kP1Infer;
          break;
        case Stage::kP1Infer:
          st.next = st.job.needs_p2 ? Stage::kP2Prep : Stage::kDone;
          break;
        case Stage::kP2Prep:
          st.next = Stage::kP2Infer;
          break;
        case Stage::kP2Infer:
          st.next = Stage::kDone;
          break;
        case Stage::kDone:
          break;
      }
      if (st.next == Stage::kDone) table_done(st);
    }
    cv.notify_all();
  };

  // The scheduling loop of Algorithm 1: whenever a pool has room, dispatch
  // the first eligible stage of its kind; otherwise wait for a completion.
  std::unique_lock<std::mutex> lock(mu);
  for (;;) {
    bool all_done = true;
    bool dispatched = false;
    for (size_t i = 0; i < states.size(); ++i) {
      TableState& st = states[i];
      if (st.next != Stage::kDone || st.in_flight) all_done = false;
      if (st.in_flight || st.next == Stage::kDone) continue;
      // Budget check before every dispatch: an already-expired table never
      // burns a pool slot on a stage that would only discover the expiry
      // itself (this is also where a pre-expired deadline_ms < 0 parks
      // every table without running anything).
      if (st.cancel != nullptr && st.cancel->Cancelled()) {
        expire_table(st);
        dispatched = true;  // state advanced; rescan before sleeping
        continue;
      }
      if (!st.started && options_.admission.enabled) {
        // Admission gate for a table's FIRST dispatch: cap the tables in
        // flight, and optionally shed a table that has already queued
        // longer than the policy allows.
        if (options_.admission.max_queue_wait_ms > 0.0 &&
            batch_sw.ElapsedMillis() > options_.admission.max_queue_wait_ms) {
          st.error = Status::Unavailable(
              "admission queue wait exceeded for table " + st.name);
          st.shed = true;
          st.next = Stage::kDone;
          dispatched = true;
          continue;
        }
        // Clamped to >= 1 so a degenerate policy can never wedge the batch.
        if (inflight_tables >=
            std::max(1, options_.admission.max_inflight_tables)) {
          continue;  // wait for an in-flight table to reach a terminal state
        }
      }
      Stage stage = st.next;
      ThreadPool& pool = IsPrepStage(stage) ? tp1 : tp2;
      // Bounded admission at the pool edge: refused = no free worker slot.
      if (!pool.TrySubmit([&run_stage, i, stage] { run_stage(i, stage); })
               .has_value()) {
        continue;
      }
      st.in_flight = true;
      if (!st.started) {
        st.started = true;
        st.admit_ms = obs::TraceNowMs();
        ++inflight_tables;
        stats_.max_tables_in_flight =
            std::max(stats_.max_tables_in_flight, inflight_tables);
      }
      if (kDebug) {
        std::fprintf(stderr, "[pipe] dispatch t=%zu stage=%d\n", i,
                     static_cast<int>(stage));
      }
      dispatched = true;
    }
    if (all_done) break;
    if (!dispatched) {
      // A live deadline can fire while nothing else would wake the
      // scheduler (e.g. every remaining table is queued behind the
      // admission cap); sleep at most until the expiry instant so those
      // tables are parked on time. Once the deadline has fired, every
      // dispatchable table was already expired above — only in-flight
      // stages remain, and their completions notify — so a plain wait is
      // correct (and avoids spinning on a zero remaining budget).
      double remaining = -1.0;
      if (batch_token && !batch_token->deadline().IsInfinite()) {
        remaining = batch_token->deadline().RemainingMillis();
      }
      if (remaining > 0.0) {
        cv.wait_for(lock,
                    std::chrono::duration<double, std::milli>(remaining));
      } else {
        cv.wait(lock);
      }
    }
  }
  lock.unlock();
  tp1.WaitIdle();
  tp2.WaitIdle();

  // Workers are idle: surface every infer context's op timings and pool
  // counters (this batch's totals) as registry metrics.
  {
    std::lock_guard<std::mutex> ctx_lock(ctx_mu);
    for (const auto& [tid, ctx] : infer_contexts) FoldExecStats(*ctx);
  }

  for (size_t i = 0; i < states.size(); ++i) {
    TableState& st = states[i];
    if (out->tables[i].outcome == TableOutcome::kShed) {
      continue;  // entry-shed: RunBatch already filled status + outcome
    }
    out->tables[i].status = st.error;
    out->tables[i].result = std::move(st.job.result);
    if (out->tables[i].result.table_name.empty()) {
      out->tables[i].result.table_name = st.name;
    }
    if (st.shed) {
      out->tables[i].outcome = TableOutcome::kShed;
    } else {
      out->tables[i].outcome =
          DeriveOutcome(st.error, out->tables[i].result, st.expired);
    }
  }
}

}  // namespace taste::pipeline
