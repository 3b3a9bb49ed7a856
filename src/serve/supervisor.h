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
//   * wedged-replica watchdog — CondemnWedged() escalates SIGTERM →
//     (watchdog_term_grace_ms) → SIGKILL for a replica that sits on an
//     overdue leg — in flight, or abandoned after losing a hedge race —
//     while its process is still alive (the SIGSTOP / stuck-syscall gray
//     failure: no SIGCHLD thanks to SA_NOCLDSTOP, no EOF). The router owns
//     the verdict; this is the single wedge detector. SIGKILL works on
//     stopped processes, so escalation always terminates.
//
// The Supervisor never blocks beyond the bounded watchdog grace: every
// other method returns immediately and the router's poll loop drives
// timers through NextTimerMillis().

#ifndef TASTE_SERVE_SUPERVISOR_H_
#define TASTE_SERVE_SUPERVISOR_H_

#include <sys/types.h>

#include <chrono>
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

  // -- Wedged-replica watchdog ------------------------------------------------

  /// Grace between SIGTERM and the SIGKILL escalation when condemning a
  /// wedged replica. Bounded and short: a SIGSTOPped process never runs
  /// its SIGTERM handler anyway, and the router loop blocks for at most
  /// this long per condemnation.
  double watchdog_term_grace_ms = 20.0;
};

enum class ReplicaState {
  kUp,      // process alive, socket open, admitted by the ring
  kDead,    // exited/killed; respawn scheduled at respawn_at
  kParked,  // exceeded max_respawns; permanently out of the ring
};

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
  /// Router-side incremental frame reassembly for this socket.
  FrameBuffer frames;
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

  /// Marks a replica dead right now (socket EOF, corrupt stream, overdue
  /// deadline), SIGKILLing the process if it still runs. Idempotent.
  void MarkDead(int id);

  /// Wedged-replica watchdog verdict: the replica sits on an overdue leg
  /// (in flight or hedge-lost) but its process is alive (no SIGCHLD, no
  /// EOF — the SIGSTOP / livelock gray failure). Escalates SIGTERM → bounded grace → SIGKILL,
  /// then routes through MarkDead for accounting and respawn scheduling.
  void CondemnWedged(int id);

  /// Respawns every dead replica whose backoff has elapsed. Returns the
  /// ids brought back up.
  std::vector<int> RespawnEligible();

  /// Milliseconds until the earliest pending respawn; < 0 when none is
  /// pending.
  double NextTimerMillis() const;

  /// True when the router's ring predicate may dispatch to `id`: state is
  /// kUp.
  bool Dispatchable(int id) const;

  // -- Introspection ---------------------------------------------------------

  int configured_replicas() const { return static_cast<int>(replicas_.size()); }
  Replica* replica(int id);
  const Replica* replica(int id) const;
  int alive_count() const;
  int64_t total_deaths() const;
  int64_t total_respawns() const;
  int64_t watchdog_kills() const { return watchdog_kills_; }
  /// Wall-clock death->back-up recovery times observed so far (ms).
  const std::vector<double>& recovery_times_ms() const { return recovery_ms_; }

 private:
  Status Spawn(Replica* r);
  /// Exports the replica's taste_replica_state gauge.
  void UpdateStateGauge(const Replica& r) const;

  WorkerEnv env_;
  SupervisorOptions options_;
  std::vector<Replica> replicas_;
  std::vector<double> recovery_ms_;
  int64_t watchdog_kills_ = 0;
  bool started_ = false;
};

}  // namespace taste::serve

#endif  // TASTE_SERVE_SUPERVISOR_H_
