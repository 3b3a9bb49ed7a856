// Replica process supervision for the multi-process serving tier
// (DESIGN.md §10, §13).
//
// The Supervisor owns N replica worker processes, each fork()ed from the
// current image (so the built model/detector/database are shared
// copy-on-write — see serve/worker.h) and connected over a Unix-domain
// socketpair. It provides the crash- and gray-fault machinery the router
// composes:
//
//   * crash detection — SIGCHLD via a self-pipe (async-signal-safe: the
//     handler writes one byte; waitpid(WNOHANG) reaping happens on the
//     router thread) AND socket EOF/POLLHUP, whichever fires first;
//   * respawn with capped deterministic backoff — RetryPolicy::
//     BackoffMillis(deaths, replica_id) drives the delay, so respawn
//     schedules replay exactly in tests; a replica past max_respawns is
//     parked permanently instead of crash-looping;
//   * heartbeat liveness — the router sends probes to IDLE replicas at
//     heartbeat_interval_ms; heartbeat_miss_limit consecutive unanswered
//     probes has the replica SIGKILLed and respawned (a wedged-but-alive
//     process looks exactly like a crash);
//   * health scoring — every completed or failed leg updates per-replica
//     EWMAs of latency and error rate (RecordLegSuccess/RecordLegError);
//     a replica whose error EWMA crosses quarantine_error_threshold is
//     QUARANTINED: its process stays alive but the router's ring predicate
//     stops admitting it (minimal-movement: only its tables move). A
//     per-replica CircuitBreaker then drives the probe lifecycle — the
//     open→half-open cooldown spaces readmit probes, one heartbeat probe
//     per half-open, and readmit_probes consecutive acks readmit it. The
//     dispatch path observes the breaker only through the const
//     WouldAllow()/state() reads (common/retry.h), so serving-path checks
//     can never consume the scorer's probe slot;
//   * wedged-replica watchdog — CondemnWedged() escalates SIGTERM →
//     (watchdog_term_grace_ms) → SIGKILL for a replica whose in-flight leg
//     is overdue while its process is still alive (the SIGSTOP /
//     stuck-syscall gray failure: no SIGCHLD thanks to SA_NOCLDSTOP, no
//     EOF, possibly live heartbeats). SIGKILL works on stopped processes,
//     so escalation always terminates.
//
// The Supervisor never blocks beyond the bounded watchdog grace: every
// other method returns immediately and the router's poll loop drives
// timers through NextTimerMillis().

#ifndef TASTE_SERVE_SUPERVISOR_H_
#define TASTE_SERVE_SUPERVISOR_H_

#include <sys/types.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "serve/wire.h"
#include "serve/worker.h"

namespace taste::serve {

struct SupervisorOptions {
  int replicas = 2;
  /// Respawn backoff: deterministic jitter, capped. Defaults keep recovery
  /// fast (first respawn ~5 ms after death) while a crash-looping replica
  /// backs off to max_backoff_ms between attempts.
  RetryPolicy respawn_backoff{.max_attempts = 1 << 30,
                              .initial_backoff_ms = 5.0,
                              .max_backoff_ms = 250.0,
                              .backoff_multiplier = 2.0,
                              .jitter_fraction = 0.2,
                              .per_call_backoff_budget_ms = 0.0,
                              .jitter_seed = 0x5EBAull};
  /// Deaths after which a replica is parked for good (no more respawns);
  /// re-dispatch then routes around it permanently.
  int max_respawns = 64;
  /// Liveness probing of idle replicas.
  double heartbeat_interval_ms = 200.0;
  int heartbeat_miss_limit = 3;

  // -- Health scoring (quarantine → probe → readmit) -------------------------

  /// Weight of the newest sample in the per-replica latency/error EWMAs.
  double health_ewma_alpha = 0.25;
  /// Error-rate EWMA at or above which an up replica is quarantined.
  /// Errors are leg-level gray verdicts: straggling past the hedge
  /// threshold, corrupt frames, deaths. <= 0 disables quarantining.
  double quarantine_error_threshold = 0.5;
  /// Outcomes observed before the error EWMA is trusted (a single failed
  /// first leg must not quarantine a cold replica).
  int health_min_samples = 3;
  /// Consecutive successful readmit probes required to rejoin the ring.
  int readmit_probes = 2;
  /// Per-replica quarantine breaker: trips on the quarantine verdict
  /// (threshold 1 — the EWMA already did the counting) and spaces readmit
  /// probes by open_cooldown_rejections probe ticks.
  CircuitBreakerOptions quarantine_breaker{.failure_threshold = 1,
                                           .open_cooldown_rejections = 2};

  // -- Wedged-replica watchdog ------------------------------------------------

  /// Grace between SIGTERM and the SIGKILL escalation when condemning a
  /// wedged replica. Bounded and short: a SIGSTOPped process never runs
  /// its SIGTERM handler anyway, and the router loop blocks for at most
  /// this long per condemnation.
  double watchdog_term_grace_ms = 20.0;
};

enum class ReplicaState {
  kUp,          // process alive, socket open, admitted by the ring
  kQuarantined, // process alive, out of the ring; probing toward readmit
  kDead,        // exited/killed; respawn scheduled at respawn_at
  kParked,      // exceeded max_respawns; permanently out of the ring
};

/// True when the replica has a live process and an open socket (kUp or
/// kQuarantined) — the states crash detection and frame draining apply to.
inline constexpr bool ProcessAlive(ReplicaState s) {
  return s == ReplicaState::kUp || s == ReplicaState::kQuarantined;
}

/// One replica worker process as the supervisor sees it.
struct Replica {
  int id = -1;
  pid_t pid = -1;
  int fd = -1;  // parent end of the socketpair (blocking; read via poll)
  ReplicaState state = ReplicaState::kDead;
  int deaths = 0;     // lifetime crash count (drives the backoff schedule)
  int respawns = 0;   // successful respawns
  std::chrono::steady_clock::time_point respawn_at{};
  std::chrono::steady_clock::time_point died_at{};
  // Heartbeat accounting (maintained with the router's idle/busy signal).
  uint64_t hb_seq = 0;          // last probe sequence sent
  uint64_t hb_acked = 0;        // last sequence acknowledged
  int hb_misses = 0;            // consecutive unanswered probes
  std::chrono::steady_clock::time_point hb_sent_at{};
  bool hb_outstanding = false;
  /// Router-side incremental frame reassembly for this socket.
  FrameBuffer frames;

  // -- Health score (EWMAs survive respawns: a crash-looping or chronically
  //    straggling replica does not reset its record by dying) --------------
  double ewma_latency_ms = 0.0;   // successful-leg latency EWMA
  double ewma_error_rate = 0.0;   // EWMA over {0 = ok, 1 = error} outcomes
  int64_t health_samples = 0;     // outcomes folded into the EWMAs
  int readmit_streak = 0;         // consecutive probe acks while quarantined
  int64_t quarantines = 0;        // times this replica entered quarantine
  /// Quarantine lifecycle breaker (see SupervisorOptions). unique_ptr so
  /// Replica stays movable (CircuitBreaker owns a mutex).
  std::unique_ptr<CircuitBreaker> health_breaker;
};

class Supervisor {
 public:
  /// `env` is captured by value; crash_replica/crash_table are threaded to
  /// each fork. The pointers inside must outlive the supervisor.
  Supervisor(WorkerEnv env, SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Forks every replica. Fails if any fork/socketpair fails (already
  /// spawned replicas are torn down).
  Status Start();

  /// SIGKILLs every worker, reaps, closes sockets.
  void Shutdown();

  // -- Poll-loop integration -------------------------------------------------

  /// Read end of the SIGCHLD self-pipe; include in every poll set.
  int sigchld_fd() const;

  /// Drains the SIGCHLD pipe and reaps every exited child of this
  /// supervisor (waitpid WNOHANG per replica). Newly dead replicas get a
  /// respawn scheduled per the backoff policy. Returns the ids that died
  /// since the last call. Also safe to call on EOF detection — a replica
  /// whose socket died but whose pid lingers is killed first.
  std::vector<int> ReapDead();

  /// Marks a replica dead right now (socket EOF, heartbeat verdict),
  /// SIGKILLing the process if it still runs. Idempotent.
  void MarkDead(int id);

  /// Wedged-replica watchdog verdict: the replica holds overdue in-flight
  /// work but its process is alive (no SIGCHLD, no EOF — the SIGSTOP /
  /// livelock gray failure). Escalates SIGTERM → bounded grace → SIGKILL,
  /// then routes through MarkDead for accounting and respawn scheduling.
  void CondemnWedged(int id);

  /// Respawns every dead replica whose backoff has elapsed. Returns the
  /// ids brought back up.
  std::vector<int> RespawnEligible();

  /// Milliseconds until the earliest pending respawn or (when
  /// `idle_heartbeats`) next heartbeat action; < 0 when no timer pending.
  double NextTimerMillis(bool idle_heartbeats) const;

  // -- Heartbeats (idle replicas only; the router says which are idle) -------

  /// Sends a probe to every kUp replica in `idle_ids` whose interval
  /// elapsed; counts a miss when the previous probe is still unanswered.
  /// A replica reaching heartbeat_miss_limit is killed and marked dead
  /// (returned so the router can re-dispatch / log).
  ///
  /// Quarantined replicas are ALSO probed here (include them in
  /// `idle_ids`; the router always does — they hold no dispatchable work).
  /// Their probes are gated by the per-replica quarantine breaker: Allow()
  /// rejections space out the cooldown, the half-open probe is one
  /// heartbeat, and acks/misses feed RecordSuccess/RecordFailure. Only
  /// this path calls Allow() — dispatch reads WouldAllow()/state() const.
  std::vector<int> ProbeIdle(const std::vector<int>& idle_ids);

  /// Records a heartbeat ack for `id` (payload = echoed sequence). For a
  /// quarantined replica a matching ack is a successful readmit probe;
  /// readmit_probes consecutive ones put it back in the ring.
  void HandleHeartbeatAck(int id, const std::string& payload);

  // -- Health scoring ---------------------------------------------------------

  /// Folds a completed leg into the replica's health EWMAs.
  void RecordLegSuccess(int id, double latency_ms);

  /// Folds a gray verdict (straggle past the hedge threshold, corrupt
  /// frame, death mid-leg) into the EWMAs; may quarantine the replica.
  void RecordLegError(int id);

  /// True when the router's ring predicate may dispatch to `id`: state is
  /// kUp. (Quarantined replicas fail this — that IS the membership update;
  /// the consistent-hash walk moves only their tables.)
  bool Dispatchable(int id) const;

  // -- Introspection ---------------------------------------------------------

  int configured_replicas() const { return static_cast<int>(replicas_.size()); }
  Replica* replica(int id);
  const Replica* replica(int id) const;
  int alive_count() const;
  int quarantined_count() const;
  int64_t total_deaths() const;
  int64_t total_respawns() const;
  int64_t total_quarantines() const;
  int64_t watchdog_kills() const { return watchdog_kills_; }
  /// Wall-clock death->back-up recovery times observed so far (ms).
  const std::vector<double>& recovery_times_ms() const { return recovery_ms_; }

 private:
  Status Spawn(Replica* r);
  /// Applies the quarantine verdict and exports the per-replica gauges.
  void UpdateHealthGauges(const Replica& r) const;
  void Quarantine(Replica* r);
  void Readmit(Replica* r);

  WorkerEnv env_;
  SupervisorOptions options_;
  std::vector<Replica> replicas_;
  std::vector<double> recovery_ms_;
  int64_t watchdog_kills_ = 0;
  bool started_ = false;
};

}  // namespace taste::serve

#endif  // TASTE_SERVE_SUPERVISOR_H_
