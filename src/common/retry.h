// Retry, backoff, and circuit-breaking primitives for the cloud-database
// serving path.
//
// The TASTE detector talks to a tenant database over a network (paper Sec.
// 6.1.3: RDS MySQL behind a ~5 ms VPC); connects, metadata queries, and
// content scans all fail in practice. This header provides the reusable
// policy pieces the serving layers share:
//
//   * IsTransient()    — which StatusCodes are worth retrying;
//   * RetryPolicy      — capped exponential backoff with *deterministic*
//                        jitter (hash-derived, no shared RNG state, so
//                        concurrent retry loops stay reproducible) plus
//                        max-attempts and a backoff-budget deadline;
//   * RetryCall()      — drives a Status- or Result<T>-returning callable
//                        through the policy;
//   * CircuitBreaker   — closed/open/half-open breaker so a dead table (or
//                        connection route) stops burning retry budget;
//   * BreakerRegistry  — thread-safe per-key breaker map.
//
// Everything here is deterministic given the policy: backoff jitter is a
// pure function of (seed, salt, attempt), and the breaker's open->half-open
// cooldown counts rejected probes instead of reading a wall clock, so test
// scripts replay bit-for-bit.

#ifndef TASTE_COMMON_RETRY_H_
#define TASTE_COMMON_RETRY_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"

namespace taste {

/// True for error categories that a retry may fix: I/O hiccups, timeouts,
/// and momentary resource exhaustion. NotFound/Invalid/Unavailable are
/// permanent — retrying cannot conjure a dropped table back.
inline bool IsTransient(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

/// Capped exponential backoff with deterministic jitter.
struct RetryPolicy {
  int max_attempts = 4;             // total tries (1 = no retry)
  double initial_backoff_ms = 5.0;  // backoff before attempt 2
  double max_backoff_ms = 100.0;    // cap on any single backoff
  double backoff_multiplier = 2.0;
  /// Each backoff is scaled by a factor drawn uniformly from
  /// [1 - jitter_fraction, 1 + jitter_fraction].
  double jitter_fraction = 0.2;
  /// Budget on the *cumulative backoff* a single logical call may spend;
  /// 0 disables. When the next backoff would exceed the remaining budget
  /// the call gives up with its last error (a deadline miss).
  double per_call_backoff_budget_ms = 0.0;
  /// Seed mixed into the jitter hash; callers add a per-call salt (e.g. a
  /// table-name hash) so concurrent retry loops are independent yet each
  /// reproducible.
  uint64_t jitter_seed = 0x7A57Eu;

  /// Backoff to sleep before attempt `attempt` (attempt 2 is the first
  /// retry). Pure function of (policy, salt, attempt).
  double BackoffMillis(int attempt, uint64_t salt) const {
    if (attempt <= 1) return 0.0;
    double base = initial_backoff_ms;
    for (int i = 2; i < attempt; ++i) base *= backoff_multiplier;
    base = std::min(base, max_backoff_ms);
    uint64_t h = jitter_seed ^ (salt * 0x9E3779B97F4A7C15ULL) ^
                 (static_cast<uint64_t>(attempt) << 32);
    double u = (SplitMix64(h) >> 11) * 0x1.0p-53;  // [0, 1)
    return base * (1.0 - jitter_fraction + 2.0 * jitter_fraction * u);
  }
};

/// What one RetryCall() did, for resilience accounting.
struct RetryObservation {
  int attempts = 0;          // calls actually made
  int retries = 0;           // attempts - 1 when > 1
  double backoff_ms = 0.0;   // cumulative (simulated) backoff slept
  bool deadline_miss = false;  // gave up because the backoff budget ran out
};

namespace internal {
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  static const Status kOk;  // Result::status() is OK when ok()
  return r.ok() ? kOk : r.status();
}
}  // namespace internal

/// Runs `fn` (returning Status or Result<T>) under `policy`. Transient
/// errors are retried with backoff realized through `sleep_ms` (pass {} or
/// a no-op to keep tests instant; the clouddb layer passes its virtual-clock
/// sleeper). Returns the last outcome; fills `obs` when non-null.
///
/// When `cancel` is set, a fired token stops the retry loop: the last
/// error is returned immediately (counted as a deadline miss) instead of
/// burning further attempts on a request whose budget is already gone.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, uint64_t salt,
               const std::function<void(double)>& sleep_ms, Fn&& fn,
               RetryObservation* obs = nullptr,
               const CancelToken* cancel = nullptr) -> decltype(fn()) {
  RetryObservation local;
  RetryObservation* o = obs != nullptr ? obs : &local;
  *o = RetryObservation();
  const int max_attempts = std::max(1, policy.max_attempts);
  for (int attempt = 1;; ++attempt) {
    ++o->attempts;
    auto outcome = fn();
    const Status& st = internal::StatusOf(outcome);
    if (st.ok() || !IsTransient(st) || attempt >= max_attempts) {
      return outcome;
    }
    if (CancelledNow(cancel)) {
      o->deadline_miss = true;
      return outcome;
    }
    double backoff = policy.BackoffMillis(attempt + 1, salt);
    if (policy.per_call_backoff_budget_ms > 0.0 &&
        o->backoff_ms + backoff > policy.per_call_backoff_budget_ms) {
      o->deadline_miss = true;
      return outcome;
    }
    o->backoff_ms += backoff;
    ++o->retries;
    if (sleep_ms) sleep_ms(backoff);
  }
}

/// Closed/open/half-open circuit breaker.
///
/// Counts consecutive failures; at `failure_threshold` it opens and rejects
/// calls. After `open_cooldown_rejections` rejected calls it half-opens and
/// admits a single probe: success closes it, failure re-opens it. The
/// cooldown is measured in rejected calls, not wall time, so behaviour is a
/// pure function of the Allow/Record sequence (deterministic under the
/// simulator's virtual clock).
struct CircuitBreakerOptions {
  int failure_threshold = 3;         // consecutive failures to open
  int open_cooldown_rejections = 4;  // rejections before half-open
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  using Options = CircuitBreakerOptions;

  explicit CircuitBreaker(Options options = Options()) : options_(options) {}

  /// True if the protected call may proceed. In the open state this counts
  /// the rejection toward the cooldown; in half-open it admits exactly one
  /// in-flight probe at a time.
  bool Allow() {
    std::lock_guard<std::mutex> lock(mu_);
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        ++short_circuits_;
        if (++rejections_ >= options_.open_cooldown_rejections) {
          state_ = State::kHalfOpen;
          probe_in_flight_ = false;
        }
        return false;
      case State::kHalfOpen:
        if (probe_in_flight_) {
          ++short_circuits_;
          return false;
        }
        probe_in_flight_ = true;
        return true;
    }
    return true;
  }

  void RecordSuccess() {
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    state_ = State::kClosed;
  }

  void RecordFailure() {
    std::lock_guard<std::mutex> lock(mu_);
    probe_in_flight_ = false;
    if (state_ == State::kHalfOpen) {
      Trip();
      return;
    }
    if (state_ == State::kClosed &&
        ++consecutive_failures_ >= options_.failure_threshold) {
      Trip();
    }
  }

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }
  /// Times the breaker transitioned into the open state.
  int64_t trips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trips_;
  }
  /// Calls rejected without reaching the protected resource.
  int64_t short_circuits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return short_circuits_;
  }

 private:
  void Trip() {  // mu_ held
    state_ = State::kOpen;
    consecutive_failures_ = 0;
    rejections_ = 0;
    ++trips_;
  }

  const Options options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int rejections_ = 0;
  bool probe_in_flight_ = false;
  int64_t trips_ = 0;
  int64_t short_circuits_ = 0;
};

/// Thread-safe map of breakers keyed by route (table name, connection id).
class BreakerRegistry {
 public:
  explicit BreakerRegistry(
      CircuitBreaker::Options options = CircuitBreaker::Options())
      : options_(options) {}

  /// Returns the breaker for `key`, creating it on first use. The pointer
  /// stays valid for the registry's lifetime.
  CircuitBreaker* Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = breakers_[key];
    if (slot == nullptr) slot = std::make_unique<CircuitBreaker>(options_);
    return slot.get();
  }

  /// Sum of trips across all breakers.
  int64_t TotalTrips() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t n = 0;
    for (const auto& [k, b] : breakers_) n += b->trips();
    return n;
  }
  int64_t TotalShortCircuits() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t n = 0;
    for (const auto& [k, b] : breakers_) n += b->short_circuits();
    return n;
  }

 private:
  const CircuitBreaker::Options options_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace taste

#endif  // TASTE_COMMON_RETRY_H_
