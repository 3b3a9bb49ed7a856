// Linear wall-time model of serving work, used by the serving router
// (serve/router.h) to decide when an outstanding replica leg is a
// straggler worth hedging.
//
// The model prices a leg by the content tokens it carries:
//
//   ms(tokens) = overhead_ms + ms_per_token * tokens
//
// and inflates that mean estimate by a tail factor to get a p99-flavoured
// bound. The router multiplies the bound by its hedge multiplier: a leg
// still outstanding past it is presumed gray-failed (wedged, SIGSTOPped,
// or drip-writing) and re-sent to the ring successor. The defaults are
// starting points only; the router re-fits the model online by least
// squares from its own completed legs (Calibrate), so the threshold tracks
// the host it runs on.

#ifndef TASTE_CORE_COST_MODEL_H_
#define TASTE_CORE_COST_MODEL_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace taste::core {

class P2CostModel {
 public:
  struct Params {
    /// Fixed cost per leg, independent of its size.
    double overhead_ms = 0.05;
    /// Marginal cost per content token.
    double ms_per_token = 0.012;
    /// Multiplicative tail inflation turning the mean estimate into a
    /// p99-flavoured one. Serving wall times are right-skewed (allocator
    /// churn, scheduler preemption, cold caches), but not unboundedly so:
    /// 4x keeps headroom without tolerating order-of-magnitude stragglers.
    double tail_p99_factor = 4.0;
  };

  P2CostModel() = default;
  explicit P2CostModel(Params params) : params_(params) {}

  /// Predicted mean wall time of work over `total_tokens` content tokens.
  double EstimateBatchMs(int64_t total_tokens) const {
    return params_.overhead_ms +
           params_.ms_per_token * static_cast<double>(total_tokens);
  }

  /// Pessimistic (p99-flavoured) wall-time estimate of the same work: the
  /// linear estimate inflated by tail_p99_factor. The router's straggler
  /// threshold is this times its hedge multiplier.
  double EstimateP99Ms(int64_t total_tokens) const {
    return params_.tail_p99_factor * EstimateBatchMs(total_tokens);
  }

  /// Least-squares fit of (total_tokens, measured_ms) samples onto the
  /// linear model. Returns false (keeping the current parameters) when the
  /// system is degenerate: fewer than two samples, no token-count spread,
  /// or a fit with a non-positive slope — timing noise on samples too
  /// narrow to resolve the marginal cost must not poison the threshold.
  bool Calibrate(const std::vector<std::pair<int64_t, double>>& samples);

  /// Default parameters for a router whose replicas run the int8 P2 path
  /// (DESIGN.md §12), fit at paper shape from the bench's int8_p2 sweep.
  /// Like the fp32 defaults, they only seed the threshold until the
  /// router's online Calibrate takes over.
  static Params DefaultInt8Params();

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace taste::core

#endif  // TASTE_CORE_COST_MODEL_H_
