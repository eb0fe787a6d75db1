// budget.h — the global SLO sleep budget (fleet orchestration, mechanism 3).
//
// The per-disk policies (src/disk/, src/adapt/) decide spin-downs from each
// spindle's private history; nothing stops every disk from sleeping at once
// and leaving the next burst to pay a fleet-wide spin-up storm.  SleepBudget
// adds the missing global view: it tracks the fleet arrival-rate estimate
// (adapt::RateEwma) and a streaming p99 of the controller's *predicted*
// response times (adapt::StreamingQuantile — the same estimators the
// per-disk SlackAwarePolicy learns from), and derives how many disks must
// stay awake to hold a p99 response-time SLO.
//
// The closed form is Liu et al.'s M/M/1 sizing: with per-disk service rate
// mu and fleet arrival rate lambda spread over m awake disks, the M/M/1 p99
// is -ln(0.01) / (mu - lambda/m), so the SLO holds iff
//
//     lambda / m  <=  mu - ln(100) / slo
//     m* = ceil(lambda / (mu - ln(100) / slo)),  clamped to [1, disks]
//
// (all disks must stay up when mu <= ln(100)/slo: even an idle server
// misses the SLO).  liu_min_awake() is that formula alone, so the unit test
// can validate it against the closed form directly.
//
// The live quota starts at `disks` (everything awake — the conservative
// state) and is recomputed once per epoch of simulated time: the measured
// p99 estimate corrects the model by +/-1 disk per epoch (over the SLO:
// grow the awake set; under half the SLO and above m*: shrink toward it).
// Everything here is a deterministic function of the observed arrival
// sequence, so the budget inherits the shard bit-identity contract.
#pragma once

#include <cstdint>
#include <optional>

#include "adapt/signals.h"

namespace spindown::orch {

/// Liu et al.'s closed-form minimum awake-disk count for a fleet arrival
/// rate `lambda` (req/s), per-disk service rate `mu` (req/s) and a p99
/// response-time SLO of `slo_s` seconds.  Returns `disks` (everything
/// awake) when the SLO is infeasible even for an unloaded disk, and at
/// least 1 otherwise (lambda <= 0 still keeps one disk up).
std::uint32_t liu_min_awake(double lambda, double mu, double slo_s,
                            std::uint32_t disks);

class SleepBudget {
public:
  /// `disks` = data-disk count the quota ranges over; `mu` = per-disk
  /// service rate (1 / mean service time); `slo_s` = p99 response SLO;
  /// `epoch_s` = how much sim time passes between quota recomputations.
  SleepBudget(std::uint32_t disks, double mu, double slo_s,
              double epoch_s = 60.0);

  /// Feed every foreground arrival (non-decreasing t).
  void observe_arrival(double t) { rate_.observe_arrival(t); }

  /// Feed the controller's predicted response for a routed request.
  void observe_response(double predicted_s) { quantile_.add(predicted_s); }

  /// Cross any epoch boundaries at or before `t`, applying one +/-1
  /// feedback step per epoch.  Returns the new quota when at least one
  /// boundary was crossed, nullopt otherwise.
  std::optional<std::uint32_t> maybe_recompute(double t) {
    if (t < next_epoch_) return std::nullopt;
    return cross_epochs(t);
  }

  /// How many disks must currently stay awake ("the awake prefix").
  std::uint32_t quota() const { return quota_; }
  double arrival_rate() const { return rate_.rate(); }
  double p99_estimate() const { return quantile_.estimate(); }
  std::uint64_t epochs() const { return epochs_; }

private:
  std::uint32_t cross_epochs(double t);
  void recompute_once();

  std::uint32_t disks_;
  double mu_;
  double slo_s_;
  double epoch_s_;
  double next_epoch_;
  std::uint32_t quota_;
  std::uint64_t epochs_ = 0;
  adapt::RateEwma rate_;
  adapt::StreamingQuantile quantile_;
};

} // namespace spindown::orch
