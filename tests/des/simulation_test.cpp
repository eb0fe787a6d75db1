#include "des/simulation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace spindown::des {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, SameTimeTiesRunInSchedulingOrderAcrossTimes) {
  // Two chains meet at t = 6: "slow" booked its t = 6 event at t = 3,
  // before "fast" did at t = 4, so it runs first.  A zero delay booked at
  // t = 6 runs at t = 6, behind every event already waiting there.
  Simulation sim;
  std::vector<std::string> log;
  const auto record = [&](const char* name) {
    log.push_back(name + std::string{"@"} + std::to_string(sim.now()));
  };
  sim.schedule_at(3.0, [&] {
    sim.schedule_in(3.0, [&] {
      record("slow");
      sim.schedule_in(0.0, [&] { record("zero"); });
    });
  });
  sim.schedule_at(4.0, [&] { sim.schedule_in(2.0, [&] { record("fast"); }); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"slow@6.000000", "fast@6.000000",
                                           "zero@6.000000"}));
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulation, RejectsPastScheduling) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const auto h = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, CancelTwiceReturnsFalse) {
  Simulation sim;
  const auto h = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulation, CancelInertHandle) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulation, RunUntilWithCancelledHeadDoesNotOverrun) {
  Simulation sim;
  bool late_ran = false;
  const auto h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(10.0, [&] { late_ran = true; });
  sim.cancel(h);
  sim.run_until(5.0);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, EventsScheduledDuringExecutionRun) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ExecutedCountsOnlyRealEvents) {
  Simulation sim;
  const auto h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
}

// ---------------------------------------------------------------------------
// Pooled-calendar semantics: generation-counted handles, exact pending(),
// same-time FIFO across cancellations.

TEST(Simulation, CancelAfterExecuteReturnsFalse) {
  Simulation sim;
  const auto h = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.pending(), 0u);
}

// Regression: the seed kernel computed pending() as queue size minus the
// cancelled-id set size; cancelling an already-executed event grew the set
// while the queue was empty, wrapping pending() to ~2^64.
TEST(Simulation, PendingNeverUnderflowsOnStaleCancel) {
  Simulation sim;
  const auto h1 = sim.schedule_at(1.0, [] {});
  const auto h2 = sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h1));
  EXPECT_FALSE(sim.cancel(h2));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_LT(sim.pending(), 1u << 30); // would fail spectacularly on wrap
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, PendingTracksScheduleCancelExecuteExactly) {
  Simulation sim;
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  const auto c = sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.step()); // runs the t=2 event
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(c));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, StaleHandleAfterSlotReuseCannotCancelNewEvent) {
  Simulation sim;
  // Execute A so its slot is recycled, then schedule B (which reuses it).
  const auto a = sim.schedule_at(1.0, [] {});
  sim.run();
  bool b_ran = false;
  const auto b = sim.schedule_at(2.0, [&] { b_ran = true; });
  EXPECT_FALSE(sim.cancel(a)); // stale generation: must not touch B
  sim.run();
  EXPECT_TRUE(b_ran);
  EXPECT_TRUE(sim.slab_size() >= 1u);
  (void)b;
}

TEST(Simulation, StaleHandleAfterCancelledSlotResurfacesCannotCancel) {
  Simulation sim;
  const auto a = sim.schedule_at(5.0, [] {});
  // Eager cancellation recycles A's slot immediately; the t=7 schedule
  // below may reuse it.
  EXPECT_TRUE(sim.cancel(a));
  sim.schedule_at(6.0, [] {});
  sim.run();
  bool c_ran = false;
  sim.schedule_at(7.0, [&] { c_ran = true; });
  EXPECT_FALSE(sim.cancel(a));
  sim.run();
  EXPECT_TRUE(c_ran);
}

TEST(Simulation, SameTimeFifoSurvivesInterleavedCancellations) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(
        sim.schedule_at(5.0, [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event; survivors must still fire in insertion order.
  for (int i = 0; i < 20; i += 3) EXPECT_TRUE(sim.cancel(handles[i]));
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(Simulation, SlotsAreRecycledNotLeaked) {
  Simulation sim;
  // Steady-state schedule->fire keeps reusing the same slot.
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_in(1.0, [] {});
    sim.run();
  }
  EXPECT_LE(sim.slab_size(), 4u);
  EXPECT_EQ(sim.executed(), 1000u);
}

TEST(Simulation, ChurnStressScheduleCancelCycles) {
  // 10^5 schedule/cancel cycles mimicking an eager idle-timer discipline
  // (arm a timer, disarm it when the next request lands), run under
  // the ASan preset in CI to shake out any slab/generation bug.
  Simulation sim;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t i = 0;
  EventHandle timer;
  while (i < 100000) {
    timer = sim.schedule_in(10.0, [&fired] { ++fired; });
    if (i % 5 != 4) {
      // "Request arrives" before the timer: disarm it.
      ASSERT_TRUE(sim.cancel(timer));
      ++cancelled;
      sim.run_until(sim.now() + 1.0);
    } else {
      // Timer fires.
      sim.run_until(sim.now() + 20.0);
    }
    ++i;
  }
  sim.run();
  EXPECT_EQ(cancelled, 80000u);
  EXPECT_EQ(fired, 20000u);
  EXPECT_EQ(sim.pending(), 0u);
  // Eager cancellation recycles the slot immediately, so the slab never
  // grows past the handful of simultaneously live events.
  EXPECT_LE(sim.slab_size(), 4u);
}

TEST(Simulation, ManyEventsStressOrdering) {
  Simulation sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed(), 10000u);
}

} // namespace
} // namespace spindown::des
