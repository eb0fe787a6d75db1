// log_tier_test.cpp — the write off-load log tier on the diurnal farm: it
// spreads writes over every log disk, and it stays stable (no backlog that
// grows with the horizon, next to nothing in flight at the horizon) with
// and without read redirection.  Every case runs at seed 1 and seed 7.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sys/scenario.h"

namespace spindown::sys {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7};

/// The diurnal farm: 40k Table-1 files packed onto ~120 disks, an LRU
/// front cache, two replicas and EWMA spin-down under four 5-hour diurnal
/// cycles (20 h); `horizon_s` overrides the workload's 72000 s.
ScenarioSpec diurnal(const std::string& orch, std::uint64_t seed,
                     double horizon_s = 72000.0) {
  const std::string s = std::to_string(seed);
  auto text = "catalog=table1(40000," + s +
              ") placement=pack load=0.2 policy=ewma cache=lru:16g "
              "replicas=2 orch=" +
              orch + " workload=nhpp(0:12;9000:0.4," +
              std::to_string(static_cast<long long>(horizon_s)) +
              ",18000) shards=3 seed=" + s;
  return ScenarioSpec::parse(text);
}

/// Requests served by each log disk: the tier is the last `log_disks`
/// entries of per_disk.
std::vector<std::uint64_t> log_served(const RunResult& r,
                                      std::uint32_t log_disks) {
  std::vector<std::uint64_t> served;
  for (std::size_t i = r.per_disk.size() - log_disks; i < r.per_disk.size();
       ++i) {
    served.push_back(r.per_disk[i].served);
  }
  return served;
}

void expect_few_in_flight(const RunResult& r) {
  EXPECT_LT(static_cast<double>(r.in_flight_at_horizon),
            1e-3 * static_cast<double>(r.requests))
      << r.in_flight_at_horizon << " of " << r.requests;
}

TEST(OrchLogTier, EveryLogDiskServesAndTheBusiestAtMostTwiceTheLeast) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto r = run_scenario(diurnal("offload:4+writes:0.1", seed));
    const auto served = log_served(r, 4);
    const auto [least, most] = std::minmax_element(served.begin(),
                                                   served.end());
    EXPECT_GT(*least, 0u);
    EXPECT_LE(*most, 2 * *least)
        << served[0] << "/" << served[1] << "/" << served[2] << "/"
        << served[3];
  }
}

TEST(OrchLogTier, RedirectPlusOffloadMeanDoesNotGrowWithTheHorizon) {
  const std::string orch = "redirect+offload:4+writes:0.1+budget:p99:30";
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto one = run_scenario(diurnal(orch, seed, 72000.0));
    const auto two = run_scenario(diurnal(orch, seed, 144000.0));
    EXPECT_LE(two.response.mean(), 1.2 * one.response.mean());
    EXPECT_LE(one.response.mean(), 1.2 * two.response.mean());
  }
}

TEST(OrchLogTier, NextToNothingIsInFlightAtTheHorizon) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto r = run_scenario(
        diurnal("redirect+offload:4+writes:0.1+budget:p99:30", seed));
    expect_few_in_flight(r);
  }
}

TEST(OrchLogTier, WriteHeavyRedirectOnOneLogDiskStaysStable) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto r =
        run_scenario(diurnal("redirect+offload:1+writes:0.5", seed));
    expect_few_in_flight(r);
    // Without the backlog guard the one log disk queues for hours.
    EXPECT_LT(r.response.mean(), 60.0);
  }
}

TEST(OrchLogTier, RedirectPlusOffloadIsNoSlowerThanRedirectAlone) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto both = run_scenario(diurnal("redirect+offload:4+writes:0.1",
                                           seed));
    const auto redirect = run_scenario(diurnal("redirect", seed));
    EXPECT_LE(both.response.mean(), redirect.response.mean());
  }
}

} // namespace
} // namespace spindown::sys
