// disk_events_test.cpp — the disk's calendar cost and its lazy edges.
//
// A batch job costs one calendar event (its completion): the
// positioning-to-transfer edge is applied lazily at its exact time, and the
// idle timer is never cancelled on arrival — the one pending timer re-arms
// or drops itself when it fires.  These tests pin both the event counts and
// the invariants the laziness must keep: exact state-time splits, gauges
// that read the due state, and spin-downs at exactly idle_since + timeout.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/units.h"

namespace spindown::disk {
namespace {

/// Hands out a fixed sequence of timeouts, one per idle period (the last
/// one repeats) — an adaptive policy's shape without its learning.
class ScriptedPolicy final : public SpinDownPolicy {
public:
  explicit ScriptedPolicy(std::vector<std::optional<double>> script)
      : script_(std::move(script)) {}
  std::optional<double> idle_timeout(util::Rng&) override {
    const auto t = script_[next_];
    if (next_ + 1 < script_.size()) ++next_;
    return t;
  }
  std::string name() const override { return "scripted"; }

private:
  std::vector<std::optional<double>> script_;
  std::size_t next_ = 0;
};

class DiskEvents : public ::testing::Test {
protected:
  des::Simulation sim_;
  DiskParams params_ = DiskParams::st3500630as();
  std::vector<Completion> completions_;
  const util::Bytes size_ = util::mb(72.0); // exactly 1 s transfer

  std::unique_ptr<Disk> make_disk(std::unique_ptr<SpinDownPolicy> policy,
                                  std::unique_ptr<IoScheduler> sched = {}) {
    auto d = std::make_unique<Disk>(sim_, 0, params_, std::move(policy),
                                    util::Rng{1}, std::move(sched));
    d->set_completion_callback(
        [this](const Completion& c) { completions_.push_back(c); });
    return d;
  }

  /// Submit at `t` the way the fleet replays arrivals: run the calendar up
  /// to `t`, then call the disk — no calendar event per arrival.
  void submit_at(Disk& d, double t, std::uint64_t id) {
    sim_.run_until(t);
    d.submit(id, size_);
  }
};

TEST_F(DiskEvents, MetricsSplitStateTimeExactlyAcrossTheLazyEdge) {
  auto d = make_disk(make_never_policy());
  d->submit(0, size_);
  const double pos = params_.position_time();
  EXPECT_EQ(sim_.pending(), 1u); // the completion is the batch's only event

  const double mid_pos = 0.5 * pos;
  sim_.run_until(mid_pos);
  EXPECT_EQ(d->state(), PowerState::kPositioning);
  auto m = d->metrics(mid_pos);
  EXPECT_EQ(m.time_in(PowerState::kPositioning), mid_pos);
  EXPECT_EQ(m.time_in(PowerState::kTransfer), 0.0);

  sim_.run_until(pos); // the edge is due at exactly `pos`
  EXPECT_EQ(d->state(), PowerState::kTransfer);
  m = d->metrics(pos);
  EXPECT_EQ(m.time_in(PowerState::kPositioning), pos);
  EXPECT_EQ(m.time_in(PowerState::kTransfer), 0.0);

  const double mid_xfer = pos + 0.5;
  sim_.run_until(mid_xfer);
  m = d->metrics(mid_xfer);
  EXPECT_EQ(m.time_in(PowerState::kPositioning), pos);
  EXPECT_EQ(m.time_in(PowerState::kTransfer), mid_xfer - pos);
  EXPECT_EQ(m.time_in(PowerState::kIdle), 0.0);
  EXPECT_EQ(m.in_service, 1u);

  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  m = d->metrics(sim_.now());
  EXPECT_EQ(m.time_in(PowerState::kPositioning), pos);
  EXPECT_EQ(m.time_in(PowerState::kTransfer), sim_.now() - pos);
  EXPECT_EQ(sim_.executed(), 1u);
}

TEST_F(DiskEvents, SamplerTickInsideTheTransferReadsTransfer) {
  obs::TraceBuffer trace{obs::kind_bit(obs::Kind::kSpan) |
                         obs::kind_bit(obs::Kind::kPower) |
                         obs::kind_bit(obs::Kind::kMetric)};
  auto d = make_disk(make_never_policy());
  d->set_trace(&trace);
  obs::MetricsSampler sampler{sim_, 0.5, 2.0, &trace};
  sampler.add_disk(d.get());
  sampler.start();
  d->submit(0, size_);
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(sampler.ticks(), 3u); // 0.5, 1.0 (both in the transfer), 1.5

  const double pos = params_.position_time();
  std::vector<double> states;
  bool saw_edge = false;
  double last_t = 0.0;
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.t, last_t) << "the track went backwards";
    last_t = e.t;
    if (e.kind == obs::Kind::kPower &&
        e.code == static_cast<std::uint8_t>(PowerState::kTransfer)) {
      EXPECT_EQ(e.t, pos);
      EXPECT_TRUE(states.empty()) << "edge must precede the gauges";
      saw_edge = true;
    }
    if (e.kind == obs::Kind::kSpan && e.code == obs::kSpanTransfer) {
      EXPECT_EQ(e.t, pos);
    }
    if (e.kind == obs::Kind::kMetric && e.code == obs::kMetricPowerState) {
      states.push_back(e.value);
    }
  }
  EXPECT_TRUE(saw_edge);
  const auto as_value = [](PowerState s) {
    return static_cast<double>(static_cast<unsigned>(s));
  };
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0], as_value(PowerState::kTransfer));
  EXPECT_EQ(states[1], as_value(PowerState::kTransfer));
  EXPECT_EQ(states[2], as_value(PowerState::kIdle));
}

TEST_F(DiskEvents, ShrinkingTimeoutCancelsTheLaterTimer) {
  // Period 0 arms a 100 s timer; the request at t = 1 ends it, and period 1
  // asks for only 10 s — the pending timer is too late and must give way.
  auto d = make_disk(std::make_unique<ScriptedPolicy>(
      std::vector<std::optional<double>>{100.0, 10.0}));
  submit_at(*d, 1.0, 0);
  sim_.run_until(5.0);
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(sim_.pending(), 1u); // one timer, not two
  const double deadline = completions_[0].completion + 10.0;
  sim_.run_until(std::nextafter(deadline, 0.0));
  EXPECT_EQ(d->state(), PowerState::kIdle);
  sim_.run_until(deadline);
  EXPECT_EQ(d->state(), PowerState::kSpinningDown);
  sim_.run();
  EXPECT_EQ(d->metrics(sim_.now()).spin_downs, 1u);
}

TEST_F(DiskEvents, GrowingTimeoutReArmsTheEarlierTimer) {
  // Period 0's 10 s timer is still pending when period 1 asks for 100 s:
  // it fires at t = 10, finds the later deadline, and re-arms for it.
  auto d = make_disk(std::make_unique<ScriptedPolicy>(
      std::vector<std::optional<double>>{10.0, 100.0}));
  submit_at(*d, 1.0, 0);
  sim_.run_until(10.0);
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(d->state(), PowerState::kIdle);
  EXPECT_EQ(sim_.pending(), 1u);
  const double deadline = completions_[0].completion + 100.0;
  sim_.run_until(std::nextafter(deadline, 0.0));
  EXPECT_EQ(d->state(), PowerState::kIdle);
  sim_.run_until(deadline);
  EXPECT_EQ(d->state(), PowerState::kSpinningDown);
  sim_.run();
  EXPECT_EQ(d->metrics(sim_.now()).spin_downs, 1u);
}

TEST_F(DiskEvents, ShortIdlePeriodsKeepAtMostOneTimerPending) {
  auto d = make_disk(make_fixed_policy(30.0));
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    sim_.run_until(5.0 * i);
    EXPECT_EQ(d->state(), PowerState::kIdle);
    EXPECT_LE(sim_.pending(), 1u) << "before request " << i;
    d->submit(static_cast<std::uint64_t>(i), size_);
    EXPECT_LE(sim_.pending(), 2u); // + this job's completion
  }
  sim_.run();
  const auto m = d->metrics(sim_.now());
  EXPECT_EQ(m.served, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(m.spin_downs, 1u); // only after the last request
  // One completion per request, one timer fire per 30 s of busy-ish time
  // (at most ~1000 / 30 re-arms), the final fire and its spin-down.
  EXPECT_LT(sim_.executed(), static_cast<std::uint64_t>(kRequests) + 40u);
}

TEST_F(DiskEvents, SpacedFcfsRequestsUnderNeverCostOneEventEach) {
  auto d = make_disk(make_never_policy());
  constexpr std::uint64_t kRequests = 50;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    submit_at(*d, 10.0 * static_cast<double>(i), i);
  }
  sim_.run();
  EXPECT_EQ(completions_.size(), kRequests);
  EXPECT_EQ(sim_.executed(), kRequests);
}

TEST_F(DiskEvents, CoalescedBatchCostsOneEventPerMember) {
  // Request 0 finds the disk idle and is served alone; 1..3 queue behind
  // it on back-to-back extents and coalesce into one positioning phase.
  auto d = make_disk(make_never_policy(), make_batch_scheduler(16, 2048));
  const std::uint64_t blocks = util::blocks_of(size_);
  sim_.run_until(1.0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    d->submit(i, size_, i * blocks, blocks);
  }
  sim_.run();
  ASSERT_EQ(completions_.size(), 4u);
  EXPECT_EQ(d->metrics(sim_.now()).positionings, 2u);
  EXPECT_EQ(sim_.executed(), 4u);
}

} // namespace
} // namespace spindown::disk
