#include "serve/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace taste::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// -- SIGCHLD self-pipe --------------------------------------------------------
//
// The handler does the only async-signal-safe thing: write one byte to a
// nonblocking pipe. The router's poll loop wakes on the read end and calls
// ReapDead(), which does the actual waitpid(WNOHANG) walk on a normal
// thread. Process-global because signal dispositions are process-global.

int g_sigchld_pipe[2] = {-1, -1};

extern "C" void SigchldHandler(int) {
  const int saved = errno;
  const char b = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(g_sigchld_pipe[1], &b, 1);
  errno = saved;
}

Status EnsureSigchldPipe() {
  if (g_sigchld_pipe[0] >= 0) return Status::OK();
  if (::pipe(g_sigchld_pipe) != 0) {
    return Status::IOError("pipe() failed: errno " + std::to_string(errno));
  }
  for (int i = 0; i < 2; ++i) {
    ::fcntl(g_sigchld_pipe[i], F_SETFL, O_NONBLOCK);
    ::fcntl(g_sigchld_pipe[i], F_SETFD, FD_CLOEXEC);
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SigchldHandler;
  sigemptyset(&sa.sa_mask);
  // SA_NOCLDSTOP: a SIGSTOPped worker must NOT look like a death — that is
  // precisely the wedged-but-alive case the router's watchdog exists to
  // catch.
  sa.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  if (::sigaction(SIGCHLD, &sa, nullptr) != 0) {
    return Status::IOError("sigaction(SIGCHLD) failed: errno " +
                           std::to_string(errno));
  }
  return Status::OK();
}

void DrainSigchldPipe() {
  char buf[256];
  while (::read(g_sigchld_pipe[0], buf, sizeof(buf)) > 0) {
  }
}

obs::Counter* DeathCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_replica_deaths_total");
  return c;
}

obs::Counter* RespawnCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_replica_respawns_total");
  return c;
}

obs::Histogram* RecoveryHistogram() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("taste_replica_recovery_ms");
  return h;
}

obs::Counter* WatchdogKillCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_watchdog_kills_total");
  return c;
}

double StateGaugeValue(ReplicaState s) {
  switch (s) {
    case ReplicaState::kUp:
      return 0.0;
    case ReplicaState::kDead:
      return 2.0;
    case ReplicaState::kParked:
      return 3.0;
  }
  return -1.0;
}

}  // namespace

Supervisor::Supervisor(WorkerEnv env, SupervisorOptions options)
    : env_(std::move(env)), options_(options) {
  TASTE_CHECK(options_.replicas >= 1);
  replicas_.resize(static_cast<size_t>(options_.replicas));
  for (int i = 0; i < options_.replicas; ++i) replicas_[i].id = i;
}

Supervisor::~Supervisor() { Shutdown(); }

int Supervisor::sigchld_fd() const { return g_sigchld_pipe[0]; }

Status Supervisor::Start() {
  TASTE_CHECK(!started_);
  TASTE_RETURN_IF_ERROR(EnsureSigchldPipe());
  started_ = true;
  for (auto& r : replicas_) {
    const Status st = Spawn(&r);
    if (!st.ok()) {
      Shutdown();
      return st;
    }
  }
  return Status::OK();
}

Status Supervisor::Spawn(Replica* r) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Status::IOError("socketpair() failed: errno " +
                           std::to_string(errno));
  }
  // Flush stdio before fork so buffered output is not emitted twice.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Status::IOError("fork() failed: errno " + std::to_string(errno));
  }
  if (pid == 0) {
    // Child: shed every parent-side descriptor so a dead router's sockets
    // actually reach EOF, restore default SIGCHLD, serve, and _exit (never
    // exit(): atexit handlers and sanitizer leak checks belong to the
    // router's image, not a forked replica).
    ::close(sv[0]);
    for (const auto& other : replicas_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    if (g_sigchld_pipe[0] >= 0) ::close(g_sigchld_pipe[0]);
    if (g_sigchld_pipe[1] >= 0) ::close(g_sigchld_pipe[1]);
    ::signal(SIGCHLD, SIG_DFL);
    _exit(WorkerMain(sv[1], env_, r->id));
  }
  // Parent side stays blocking: the router polls for readiness and issues
  // exactly one read() per POLLIN (which never blocks), and its writes are
  // small control/request frames that fit the socket buffer.
  ::close(sv[1]);
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  r->pid = pid;
  r->fd = sv[0];
  r->state = ReplicaState::kUp;
  r->frames = FrameBuffer();
  UpdateStateGauge(*r);
  return Status::OK();
}

void Supervisor::MarkDead(int id) {
  Replica* r = replica(id);
  TASTE_CHECK(r != nullptr);
  if (r->state != ReplicaState::kUp) return;
  if (r->pid > 0) {
    ::kill(r->pid, SIGKILL);
    // SIGKILL cannot be blocked; the reap below completes promptly.
    int wstatus = 0;
    while (::waitpid(r->pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  if (r->fd >= 0) {
    ::close(r->fd);
    r->fd = -1;
  }
  r->pid = -1;
  r->died_at = Clock::now();
  r->deaths += 1;
  DeathCounter()->Inc();
  if (r->deaths > options_.max_respawns) {
    r->state = ReplicaState::kParked;
    UpdateStateGauge(*r);
    TASTE_LOG(Warn) << "replica " << r->id << " parked after " << r->deaths
                    << " deaths";
    return;
  }
  r->state = ReplicaState::kDead;
  UpdateStateGauge(*r);
  const double backoff =
      options_.respawn_backoff.BackoffMillis(r->deaths + 1,
                                             static_cast<uint64_t>(r->id));
  r->respawn_at =
      r->died_at + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(backoff));
}

void Supervisor::CondemnWedged(int id) {
  Replica* r = replica(id);
  if (r == nullptr || r->state != ReplicaState::kUp) return;
  watchdog_kills_ += 1;
  WatchdogKillCounter()->Inc();
  if (r->pid > 0) {
    // Polite first: a merely-slow worker gets a chance to die cleanly and
    // flush nothing (its leg is already being re-dispatched; the stale
    // response, if any, is suppressed by request id). A SIGSTOPped or
    // hard-wedged process never runs the handler — SIGTERM stays pending —
    // so after the bounded grace SIGKILL finishes the job (SIGKILL
    // terminates even stopped processes).
    ::kill(r->pid, SIGTERM);
    const Deadline grace = Deadline::AfterMillis(
        options_.watchdog_term_grace_ms > 0.0 ? options_.watchdog_term_grace_ms
                                              : 1.0);
    for (;;) {
      int wstatus = 0;
      const pid_t got = ::waitpid(r->pid, &wstatus, WNOHANG);
      if (got == r->pid) {
        r->pid = -1;  // reaped here; MarkDead skips its kill/waitpid
        break;
      }
      if (got < 0 && errno != EINTR) break;
      if (grace.Expired()) break;
      ::usleep(1000);
    }
  }
  TASTE_LOG(Warn) << "replica " << id
                  << " condemned by watchdog (overdue leg, process alive); "
                     "escalating to SIGKILL";
  MarkDead(id);
}

std::vector<int> Supervisor::ReapDead() {
  DrainSigchldPipe();
  std::vector<int> died;
  for (auto& r : replicas_) {
    if (r.state != ReplicaState::kUp || r.pid <= 0) continue;
    int wstatus = 0;
    const pid_t got = ::waitpid(r.pid, &wstatus, WNOHANG);
    if (got != r.pid) continue;
    // Already reaped: make MarkDead skip its kill/waitpid.
    r.pid = -1;
    MarkDead(r.id);
    died.push_back(r.id);
  }
  return died;
}

std::vector<int> Supervisor::RespawnEligible() {
  std::vector<int> up;
  const auto now = Clock::now();
  for (auto& r : replicas_) {
    if (r.state != ReplicaState::kDead || now < r.respawn_at) continue;
    const Status st = Spawn(&r);
    if (!st.ok()) {
      TASTE_LOG(Warn) << "respawn of replica " << r.id
                      << " failed: " << st.ToString();
      // Try again after another backoff step.
      r.deaths += 1;
      r.respawn_at = now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   options_.respawn_backoff.BackoffMillis(
                                       r.deaths + 1,
                                       static_cast<uint64_t>(r.id))));
      continue;
    }
    r.respawns += 1;
    RespawnCounter()->Inc();
    const double recovery = MillisBetween(r.died_at, Clock::now());
    recovery_ms_.push_back(recovery);
    RecoveryHistogram()->Observe(recovery);
    up.push_back(r.id);
  }
  return up;
}

double Supervisor::NextTimerMillis() const {
  const auto now = Clock::now();
  double best = -1.0;
  for (const auto& r : replicas_) {
    if (r.state != ReplicaState::kDead) continue;
    const double ms = std::max(0.0, MillisBetween(now, r.respawn_at));
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

void Supervisor::Shutdown() {
  if (!started_) return;
  for (auto& r : replicas_) {
    if (r.state == ReplicaState::kUp) {
      // Polite first: a shutdown frame lets the worker exit 0; SIGKILL
      // catches one wedged mid-request.
      (void)WriteFrame(r.fd, FrameType::kShutdown, std::string());
      if (r.pid > 0) {
        ::kill(r.pid, SIGKILL);
        int wstatus = 0;
        while (::waitpid(r.pid, &wstatus, 0) < 0 && errno == EINTR) {
        }
      }
      if (r.fd >= 0) ::close(r.fd);
      r.fd = -1;
      r.pid = -1;
      r.state = ReplicaState::kDead;
    }
  }
  started_ = false;
}

Replica* Supervisor::replica(int id) {
  if (id < 0 || id >= static_cast<int>(replicas_.size())) return nullptr;
  return &replicas_[static_cast<size_t>(id)];
}

const Replica* Supervisor::replica(int id) const {
  if (id < 0 || id >= static_cast<int>(replicas_.size())) return nullptr;
  return &replicas_[static_cast<size_t>(id)];
}

bool Supervisor::Dispatchable(int id) const {
  const Replica* r = replica(id);
  return r != nullptr && r->state == ReplicaState::kUp;
}

void Supervisor::UpdateStateGauge(const Replica& r) const {
  obs::Registry::Global()
      .GetGauge(obs::LabeledName("taste_replica_state", "replica",
                                 std::to_string(r.id)))
      ->Set(StateGaugeValue(r.state));
}

int Supervisor::alive_count() const {
  int n = 0;
  for (const auto& r : replicas_) n += r.state == ReplicaState::kUp ? 1 : 0;
  return n;
}

int64_t Supervisor::total_deaths() const {
  int64_t n = 0;
  for (const auto& r : replicas_) n += r.deaths;
  return n;
}

int64_t Supervisor::total_respawns() const {
  int64_t n = 0;
  for (const auto& r : replicas_) n += r.respawns;
  return n;
}

}  // namespace taste::serve
