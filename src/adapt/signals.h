// signals.h — streaming workload-signal estimators shared by the adaptive
// policies (src/adapt/) and the fleet orchestration layer (src/orch/).
//
// Both consumers need the same two O(1)-state estimates of a live request
// stream: "where is the p-th response-time percentile right now" and "how
// fast are requests arriving".  Extracted here so the per-disk
// SlackAwarePolicy and the fleet-wide SLO sleep budget literally share one
// implementation — the budget's signals feed the same arithmetic the
// per-disk policy learns from.
//
//   * StreamingQuantile — the stochastic-approximation (Frugal-style)
//     quantile tracker: step up by gain·q·p on a sample above the estimate,
//     down by gain·q·(1−p) otherwise.  In equilibrium the up-steps (taken
//     with probability 1−p) balance the down-steps (probability p), which
//     happens exactly at the p-quantile; the multiplicative step keeps it
//     adapting under drift.
//   * RateEwma — an EWMA over inter-arrival gaps, reported as a rate.  The
//     gap (not the rate) is averaged so one long lull cannot be averaged
//     away by many short gaps that preceded it.
//
// Both are deterministic functions of the sample sequence — no clocks, no
// randomness — so every consumer inherits the shard bit-identity contract
// for free.
#pragma once

#include <algorithm>
#include <cstdint>

namespace spindown::adapt {

/// Streaming p-quantile tracker.  add() is O(1); estimate() converges to
/// the p-quantile of the (possibly drifting) sample distribution.  The
/// first sample initializes the estimate directly.
class StreamingQuantile {
public:
  /// `percentile` in (0, 100); `gain` in (0, 1) — the step size as a
  /// fraction of the current estimate (validated by the policy/controller
  /// configs, asserted here only by arithmetic).
  StreamingQuantile(double percentile, double gain)
      : p_(percentile / 100.0), gain_(gain) {}

  void add(double x) {
    if (x < 0.0) return;
    ++samples_;
    if (samples_ == 1) {
      estimate_ = x;
      return;
    }
    // The max(estimate, 0.1·x) step floor restarts a collapsed estimate:
    // if the stream jumps upward after the estimate converged near zero, a
    // step proportional to the estimate alone could never catch up.
    const double step = gain_ * std::max(estimate_, x * 0.1);
    if (x > estimate_) {
      estimate_ += step * p_;
    } else {
      estimate_ -= step * (1.0 - p_);
    }
    estimate_ = std::max(0.0, estimate_);
  }

  double estimate() const { return estimate_; }
  std::uint64_t samples() const { return samples_; }

private:
  double p_;
  double gain_;
  double estimate_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// Streaming arrival-rate estimate: EWMA of inter-arrival gaps, exposed as
/// a rate.  Feed it absolute arrival times in non-decreasing order.  Until
/// two arrivals have been seen rate() reports `initial_rate` (0 = unknown).
class RateEwma {
public:
  explicit RateEwma(double alpha = 0.2, double initial_rate = 0.0)
      : alpha_(alpha), rate_(initial_rate) {}

  void observe_arrival(double t) {
    ++arrivals_;
    if (arrivals_ == 1) {
      last_arrival_ = t;
      return;
    }
    const double gap = std::max(1e-9, t - last_arrival_);
    last_arrival_ = t;
    if (arrivals_ == 2) {
      gap_ewma_ = gap;
    } else {
      gap_ewma_ = alpha_ * gap + (1.0 - alpha_) * gap_ewma_;
    }
    rate_ = 1.0 / gap_ewma_;
  }

  double rate() const { return rate_; }
  std::uint64_t arrivals() const { return arrivals_; }

private:
  double alpha_;
  double rate_;
  double last_arrival_ = 0.0;
  double gap_ewma_ = 0.0;
  std::uint64_t arrivals_ = 0;
};

} // namespace spindown::adapt
