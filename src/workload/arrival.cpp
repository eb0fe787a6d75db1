#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.h"

namespace spindown::workload {

PoissonArrivals::PoissonArrivals(double rate) : rate_(rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument{"PoissonArrivals: rate must be > 0"};
  }
}

double PoissonArrivals::next_arrival(util::Rng& rng) {
  now_ += rng.exponential(rate_);
  return now_;
}

std::string PoissonArrivals::name() const {
  return "poisson(" + util::format_double(rate_, 3) + "/s)";
}

PiecewiseRateArrivals::PiecewiseRateArrivals(std::vector<RateSegment> segments,
                                             double period)
    : segments_(std::move(segments)), period_(period) {
  if (segments_.empty()) {
    throw std::invalid_argument{"PiecewiseRateArrivals: no segments"};
  }
  if (segments_.front().start != 0.0) {
    throw std::invalid_argument{
        "PiecewiseRateArrivals: first segment must start at 0"};
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].rate < 0.0) {
      throw std::invalid_argument{"PiecewiseRateArrivals: negative rate"};
    }
    if (i > 0 && segments_[i].start <= segments_[i - 1].start) {
      throw std::invalid_argument{
          "PiecewiseRateArrivals: segment starts must be increasing"};
    }
    peak_ = std::max(peak_, segments_[i].rate);
  }
  if (peak_ <= 0.0) {
    throw std::invalid_argument{
        "PiecewiseRateArrivals: at least one segment rate must be > 0"};
  }
  if (period_ < 0.0) {
    throw std::invalid_argument{"PiecewiseRateArrivals: negative period"};
  }
  if (period_ > 0.0 && segments_.back().start >= period_) {
    throw std::invalid_argument{
        "PiecewiseRateArrivals: segment starts must lie inside the period"};
  }
  if (period_ == 0.0 && segments_.back().rate <= 0.0) {
    // The last rate holds forever: if it is zero the thinning loop would
    // reject candidates unboundedly once the clock passes it.
    throw std::invalid_argument{
        "PiecewiseRateArrivals: trailing zero rate without a period"};
  }
}

std::size_t PiecewiseRateArrivals::segment_of(double u) const {
  // Few segments in practice: linear scan from the back.
  for (std::size_t i = segments_.size(); i-- > 0;) {
    if (u >= segments_[i].start) return i;
  }
  return 0;
}

double PiecewiseRateArrivals::rate_at(double t) const {
  if (period_ > 0.0) {
    t = std::fmod(t, period_);
    if (t < 0.0) t += period_;
  }
  return segments_[segment_of(t)].rate;
}

void PiecewiseRateArrivals::refresh_cursor(double t) {
  // Candidates are never negative, so rate_at's negative wrap never fires.
  const double u = period_ > 0.0 ? std::fmod(t, period_) : t;
  const std::size_t i = segment_of(u);
  cursor_rate_ = segments_[i].rate;
  const bool last = i + 1 == segments_.size();
  if (period_ <= 0.0) {
    cursor_until_ = last ? std::numeric_limits<double>::infinity()
                         : segments_[i + 1].start;
    return;
  }
  // The exactness argument is in arrival.h.
  const double end = last ? period_ : segments_[i + 1].start;
  const double guard = 4.0 * std::numeric_limits<double>::epsilon() * (t + end);
  cursor_until_ = ((t - u) + end) - guard;
}

double PiecewiseRateArrivals::next_arrival(util::Rng& rng) {
  // Lewis–Shedler thinning: homogeneous candidates at the peak rate,
  // accepted with probability rate(t)/peak.
  for (;;) {
    now_ += rng.exponential(peak_);
    if (!(now_ < cursor_until_)) refresh_cursor(now_);
    const double r = cursor_rate_;
    if (r >= peak_ || rng.uniform01() * peak_ < r) return now_;
  }
}

std::string PiecewiseRateArrivals::name() const {
  std::string out = "nhpp(";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) out += ";";
    out += util::format_double(segments_[i].start, 3) + ":" +
           util::format_double(segments_[i].rate, 3);
  }
  if (period_ > 0.0) out += " per " + util::format_seconds(period_);
  return out + ")";
}

MmppArrivals::MmppArrivals(MmppParams params) : params_(params) {
  if (params_.rate[0] < 0.0 || params_.rate[1] < 0.0 ||
      (params_.rate[0] <= 0.0 && params_.rate[1] <= 0.0)) {
    throw std::invalid_argument{
        "MmppArrivals: rates must be >= 0 with at least one > 0"};
  }
  if (params_.mean_dwell[0] <= 0.0 || params_.mean_dwell[1] <= 0.0) {
    throw std::invalid_argument{"MmppArrivals: dwell times must be > 0"};
  }
}

double MmppArrivals::next_arrival(util::Rng& rng) {
  if (!started_) {
    started_ = true;
    switch_at_ = now_ + rng.exponential(1.0 / params_.mean_dwell[state_]);
  }
  for (;;) {
    const double rate = params_.rate[static_cast<std::size_t>(state_)];
    // Exponential races are memoryless, so the losing candidate can be
    // discarded and redrawn after the state switch.
    const double candidate =
        rate > 0.0 ? now_ + rng.exponential(rate)
                   : std::numeric_limits<double>::infinity();
    if (candidate < switch_at_) {
      now_ = candidate;
      return now_;
    }
    now_ = switch_at_;
    state_ ^= 1;
    ++switches_;
    switch_at_ = now_ + rng.exponential(1.0 / params_.mean_dwell[state_]);
  }
}

std::string MmppArrivals::name() const {
  return "mmpp(" + util::format_double(params_.rate[0], 3) + "/s x " +
         util::format_seconds(params_.mean_dwell[0]) + ", " +
         util::format_double(params_.rate[1], 3) + "/s x " +
         util::format_seconds(params_.mean_dwell[1]) + ")";
}

} // namespace spindown::workload
