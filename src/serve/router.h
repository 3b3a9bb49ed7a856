// The supervising router of the multi-process serving tier (DESIGN.md §10).
//
// RunBatch() scatters a batch of tables across the supervisor's replica
// workers by consistent hash, gathers per-leg responses from a single
// poll(2) loop, and merges them back into a pipeline::BatchResult in input
// order — the same shape (and, faults off, the same bytes) a single-process
// PipelineExecutor produces.
//
// Robustness semantics:
//
//   * A replica that dies mid-leg (SIGCHLD or socket EOF) has its
//     in-flight tables RE-DISPATCHED to surviving replicas. Detection is a
//     pure function of (table, model weights, options) and every replica
//     shares the forked model image, so the replayed work is
//     byte-identical to what the dead replica would have produced —
//     re-dispatch is idempotent by construction.
//   * Each re-dispatch blacklists the dead replica for those tables, so a
//     table that reliably kills its owner (the chaos harness injects
//     exactly this) walks the ring past repeat offenders instead of
//     crash-looping forever.
//   * When no usable replica remains for a table (all dead, parked, or
//     blacklisted) the router runs it LOCALLY on its own executor with the
//     remaining deadline. Under an exhausted budget this degrades to
//     metadata-only results / kExpired through the exact PR-1 semantics —
//     graceful degradation, never a hang.
//   * Deadline propagation: each leg carries the batch's remaining budget
//     (wire semantics of serve/wire.h); the batch-level deadline also
//     bounds the gather loop itself: kOverdueGraceMs past the deadline the
//     replicas still holding legs are killed and their tables replayed
//     pre-expired, so a stuck replica cannot hold the batch past its
//     budget.
//
// Gray-failure handling (DESIGN.md §13) — failures that are neither a crash
// nor an EOF:
//
//   * STRAGGLERS are hedged: a leg outstanding past a cost-model-derived
//     threshold (core/cost_model p99 estimate × hedge_multiplier) is
//     speculatively re-sent to the ring successor. First valid response
//     wins; the loser's tables are counted as wasted duplicates
//     (taste_hedge_wasted_total), never merged twice. Hedge volume per
//     batch is capped by hedge_budget_fraction.
//   * WEDGED replicas (SIGSTOP, livelock: the process is alive but a leg it
//     owes an answer for is long overdue) are condemned via the
//     supervisor's watchdog escalation and their pending tables
//     re-dispatched byte-identically. The watchdog judges in-flight legs
//     AND legs abandoned after losing a hedge race, so a replica that
//     wedges and stays wedged is killed and respawned rather than left to
//     make every later batch it owns pay the hedge threshold. It is the
//     single wedge detector and cannot be switched off.
//   * CORRUPT frames (CRC / framing faults from serve/wire.h) poison the
//     stream: the replica is marked dead and its tables re-dispatched — a
//     corrupted response is never surfaced as valid.

#ifndef TASTE_SERVE_ROUTER_H_
#define TASTE_SERVE_ROUTER_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cost_model.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"
#include "serve/supervisor.h"
#include "serve/worker.h"

namespace taste::serve {

/// Deterministic 64-bit hash of a table name (FNV-1a finished through a
/// SplitMix64 round) — stable across processes and platforms, unlike
/// std::hash.
uint64_t HashTableName(const std::string& name);

/// Consistent hash ring over replica ids with virtual nodes. Placement is
/// a pure function of (replica count, vnodes, table name); failover walks
/// the ring to the first ACCEPTABLE node, so surviving assignments do not
/// move when a replica dies — only the dead node's tables do.
class ConsistentHashRing {
 public:
  ConsistentHashRing(int replicas, int vnodes);

  /// First node at or clockwise of the table's point that `acceptable`
  /// admits; -1 when no node qualifies.
  template <typename Pred>
  int NodeFor(const std::string& table, Pred&& acceptable) const {
    if (points_.empty()) return -1;
    const uint64_t h = HashTableName(table);
    size_t lo = 0, hi = points_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (points_[mid].hash < h) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Walk clockwise; visit each distinct replica at most once.
    uint64_t seen = 0;  // replica-count <= 64 enforced in the constructor
    int distinct = 0;
    for (size_t i = 0; distinct < replicas_ && i < points_.size(); ++i) {
      const int node = points_[(lo + i) % points_.size()].node;
      const uint64_t bit = 1ull << node;
      if (seen & bit) continue;
      seen |= bit;
      ++distinct;
      if (acceptable(node)) return node;
    }
    return -1;
  }

 private:
  struct Point {
    uint64_t hash;
    int node;
  };
  int replicas_;
  std::vector<Point> points_;
};

/// Default straggler-threshold multiplier; the watchdog derives its
/// threshold from it when hedging is disabled.
inline constexpr double kDefaultHedgeMultiplier = 4.0;

/// How long past the batch deadline replicas still holding legs are given
/// before they are killed and their tables replayed pre-expired.
inline constexpr double kOverdueGraceMs = 600.0;

struct RouterOptions {
  SupervisorOptions supervisor;
  int vnodes = 64;
  /// Poll granularity when no timer is pending (ms).
  double poll_slack_ms = 50.0;
  double scrape_timeout_ms = 1000.0;

  // -- Hedged re-dispatch (gray stragglers) ----------------------------------

  /// A leg still outstanding past its straggler threshold —
  /// max(hedge_floor_ms, cost-model EstimateP99Ms(leg tokens) ×
  /// hedge_multiplier) — is presumed gray-failed and speculatively re-sent
  /// to the ring successor. First valid response wins; duplicates are
  /// suppressed and counted. 0 disables hedging.
  double hedge_multiplier = kDefaultHedgeMultiplier;
  /// Lower bound on the straggler threshold, so a cold cost model or a
  /// tiny leg does not hedge on scheduling noise.
  double hedge_floor_ms = 25.0;
  /// Token-volume stand-in per table fed to the cost model (the router
  /// never sees content sizes; online calibration against completed legs
  /// absorbs the approximation).
  int hedge_tokens_per_table = 600;
  /// Cap on speculatively duplicated tables per batch, as a fraction of
  /// the batch size (minimum 1 once hedging triggers). Bounds duplicate
  /// work under a gray storm.
  double hedge_budget_fraction = 0.25;

  // -- Wedged-replica watchdog -----------------------------------------------

  /// Leg age at which the replica owing it — in flight, or abandoned
  /// after losing a hedge race — is condemned as wedged (SIGTERM →
  /// SIGKILL → respawn; supervisor.watchdog_term_grace_ms). 0 derives 4×
  /// the leg's straggler threshold, taken at kDefaultHedgeMultiplier when
  /// hedging is disabled: the watchdog is always on.
  double watchdog_ms = 0.0;
};

/// Cumulative fault-handling activity across the router's lifetime.
struct RouterStats {
  double wall_ms = 0.0;              // most recent RunBatch
  int64_t batches = 0;
  int64_t dispatched_tables = 0;     // tables sent to replicas (first try)
  int64_t redispatched_tables = 0;   // failover re-dispatches
  int64_t replica_deaths = 0;        // deaths observed during batches
  int64_t local_fallback_tables = 0; // tables the router ran itself
  int64_t hedged_tables = 0;         // speculative duplicate dispatches
  int64_t hedge_wasted_tables = 0;   // duplicate responses discarded
  pipeline::ResilienceStats resilience;  // merged across legs + fallback
};

class Router {
 public:
  /// `env` supplies both the worker fork environment and the router's own
  /// local-fallback executor (same detector/db/options — that is what makes
  /// fallback byte-identical when faults are off). Pointers must outlive
  /// the router.
  Router(WorkerEnv env, RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Forks the replicas. Call once before RunBatch.
  Status Start();
  void Shutdown();

  /// Scatter/gather detection of `tables`, results in input order. Uses
  /// env.pipeline_options.deadline_ms as the batch budget (0 = none),
  /// anchored at entry — identical semantics to PipelineExecutor.
  pipeline::BatchResult RunBatch(const std::vector<std::string>& tables);

  /// Drives reap/respawn timers until every non-parked replica is up or
  /// `budget_ms` elapses. Returns whether full strength was reached —
  /// the chaos harness's bounded-recovery assertion.
  bool MaintainUntilAllUp(double budget_ms);

  /// Scrapes every live replica's metrics registry and aggregates them
  /// with the router's own (obs/aggregate.h): summed base series plus
  /// per-replica labeled series.
  Result<obs::Registry::Snapshot> Scrape();

  const RouterStats& stats() const { return stats_; }
  Supervisor& supervisor() { return supervisor_; }

 private:
  struct Leg;  // one in-flight DetectRequest to one replica

  /// Why a leg is being sent — drives dispatch accounting and whether the
  /// new leg may itself be hedged (hedges never cascade).
  enum class SendKind { kFirst, kRedispatch, kHedge };

  /// Sends one leg carrying `indices` (into the current batch's table
  /// vector). Returns false when the write failed and the replica was
  /// marked dead (caller re-plans the leg's tables).
  bool SendLeg(int replica_id, std::vector<size_t> indices,
               const std::vector<std::string>& tables, double remaining_ms,
               SendKind kind, std::vector<Leg>* legs);

  /// Straggler threshold for a leg of `leg_tables` tables at `multiplier`.
  double StragglerThresholdMs(size_t leg_tables, double multiplier) const;

  /// Watchdog threshold for a leg of `leg_tables` tables (never 0).
  double WatchdogThresholdMs(size_t leg_tables) const;

  /// Feeds a completed leg's (token volume, wall ms) into the online
  /// cost-model calibration so the straggler threshold tracks the machine.
  void RecordLegSample(size_t leg_tables, double wall_ms);

  /// Accounts a response whose request id matches no in-flight leg. An id
  /// abandoned in an earlier batch with its race already resolved is pure
  /// duplicate work and counted as wasted hedge tables; anything else is a
  /// stale answer to a re-dispatched leg and ignored.
  void AccountUnmatchedResponse(uint64_t request_id, size_t tables);

  WorkerEnv env_;
  RouterOptions options_;
  Supervisor supervisor_;
  ConsistentHashRing ring_;
  RouterStats stats_;
  /// Straggler-threshold model, online-calibrated from completed legs.
  core::P2CostModel cost_model_;
  std::vector<std::pair<int64_t, double>> cost_samples_;
  /// A leg still in flight when its batch resolved (a hedge or the
  /// fallback won its race). The replica still owes the answer: a late
  /// response is counted as wasted hedge work, and a replica still alive
  /// under the same pid past watchdog_ms is condemned as wedged.
  struct AbandonedLeg {
    int replica = -1;
    pid_t pid = -1;
    std::chrono::steady_clock::time_point sent_at{};
    double watchdog_ms = 0.0;
  };
  /// Abandoned legs by request id. Bounded; entries of a replica that died
  /// or respawned are dropped.
  std::map<uint64_t, AbandonedLeg> superseded_;
  uint64_t next_request_id_ = 1;
  bool started_ = false;
};

}  // namespace taste::serve

#endif  // TASTE_SERVE_ROUTER_H_
