#include "orch/budget.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spindown::orch {

std::uint32_t liu_min_awake(double lambda, double mu, double slo_s,
                            std::uint32_t disks) {
  if (disks == 0) return 0;
  const double drain = mu - std::log(100.0) / slo_s;
  if (drain <= 0.0) return disks; // SLO infeasible even for an idle disk
  if (lambda <= 0.0) return 1;
  const double m = std::ceil(lambda / drain);
  if (m >= static_cast<double>(disks)) return disks;
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(m));
}

SleepBudget::SleepBudget(std::uint32_t disks, double mu, double slo_s,
                         double epoch_s)
    : disks_(disks), mu_(mu), slo_s_(slo_s), epoch_s_(epoch_s),
      next_epoch_(epoch_s), quota_(disks),
      quantile_(/*percentile=*/99.0, /*gain=*/0.05) {
  if (disks == 0) {
    throw std::invalid_argument{"SleepBudget: need at least one disk"};
  }
  if (!(mu > 0.0) || !(slo_s > 0.0) || !(epoch_s > 0.0)) {
    throw std::invalid_argument{
        "SleepBudget: mu, slo and epoch must be positive"};
  }
}

std::uint32_t SleepBudget::cross_epochs(double t) {
  // One feedback step per crossed epoch: long idle stretches walk the quota
  // toward the closed-form m* one disk at a time, exactly as if the epochs
  // had been observed live.
  while (t >= next_epoch_) {
    recompute_once();
    next_epoch_ += epoch_s_;
    ++epochs_;
  }
  return quota_;
}

void SleepBudget::recompute_once() {
  const std::uint32_t target =
      liu_min_awake(rate_.rate(), mu_, slo_s_, disks_);
  const double p99 = quantile_.estimate();
  if (p99 > slo_s_) {
    // Measured tail over the SLO: the model underestimates; grow the awake
    // set regardless of what the closed form claims.
    quota_ = std::min(quota_ + 1, disks_);
  } else if (p99 < 0.5 * slo_s_ && quota_ > target) {
    // Comfortably inside the SLO and above the model's floor: release one
    // disk to the sleepable pool.
    --quota_;
  } else {
    quota_ = std::max(quota_, target);
  }
  quota_ = std::clamp<std::uint32_t>(quota_, 1, disks_);
}

} // namespace spindown::orch
