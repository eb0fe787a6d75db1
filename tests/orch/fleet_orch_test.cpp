// fleet_orch_test.cpp — orchestration at fleet scale: shard bit-identity
// with every mechanism live, the replicas-without-orch inertness contract,
// and scenario-string resolution of the orch/replica keys.
#include "sys/fleet.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sys/scenario.h"
#include "util/units.h"

namespace spindown::sys {
namespace {

workload::FileCatalog fleet_catalog(std::size_t n_files = 12) {
  std::vector<workload::FileInfo> files(n_files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(50.0 + 10.0 * static_cast<double>(i % 4));
    files[i].popularity = 1.0 / static_cast<double>(n_files);
  }
  return workload::FileCatalog{files};
}

/// A 6-data-disk fleet with orchestration fully on: one log disk appended
/// (num_disks = 7), 2-way replication, redirect + offload + budget.
ExperimentConfig orch_config(const workload::FileCatalog& cat) {
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % 6);
  }
  cfg.orch = OrchSpec::parse("redirect+offload:1:120+budget:p99:5");
  cfg.num_disks = 6 + cfg.orch.log_disks;
  cfg.replicas = 2;
  cfg.workload = WorkloadSpec::poisson(0.8, 200.0);
  cfg.seed = 17;
  return cfg;
}

/// Every physical field of two RunResults must agree bitwise (same contract
/// as tests/sys/fleet_test.cpp; `events` deliberately absent).
void expect_same_physical(const RunResult& a, const RunResult& b) {
  EXPECT_DOUBLE_EQ(a.power.horizon_s, b.power.horizon_s);
  EXPECT_DOUBLE_EQ(a.power.energy, b.power.energy);
  EXPECT_DOUBLE_EQ(a.power.average_power, b.power.average_power);
  EXPECT_DOUBLE_EQ(a.power.always_on_energy, b.power.always_on_energy);
  EXPECT_DOUBLE_EQ(a.power.saving_vs_always_on, b.power.saving_vs_always_on);
  EXPECT_EQ(a.power.spin_ups, b.power.spin_ups);
  EXPECT_EQ(a.power.spin_downs, b.power.spin_downs);
  for (std::size_t s = 0; s < a.power.state_time.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.power.state_time[s], b.power.state_time[s]);
  }
  EXPECT_EQ(a.response.count(), b.response.count());
  EXPECT_DOUBLE_EQ(a.response.mean(), b.response.mean());
  EXPECT_DOUBLE_EQ(a.response.stddev(), b.response.stddev());
  EXPECT_DOUBLE_EQ(a.response.min(), b.response.min());
  EXPECT_DOUBLE_EQ(a.response.max(), b.response.max());
  EXPECT_DOUBLE_EQ(a.response.p50(), b.response.p50());
  EXPECT_DOUBLE_EQ(a.response.p95(), b.response.p95());
  EXPECT_DOUBLE_EQ(a.response.p99(), b.response.p99());
  EXPECT_EQ(a.hits_response.count(), b.hits_response.count());
  EXPECT_DOUBLE_EQ(a.hits_response.mean(), b.hits_response.mean());
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completed_at_horizon, b.completed_at_horizon);
  EXPECT_EQ(a.in_flight_at_horizon, b.in_flight_at_horizon);
  ASSERT_EQ(a.per_disk.size(), b.per_disk.size());
  for (std::size_t i = 0; i < a.per_disk.size(); ++i) {
    SCOPED_TRACE("disk " + std::to_string(i));
    const auto& da = a.per_disk[i];
    const auto& db = b.per_disk[i];
    EXPECT_EQ(da.disk_id, db.disk_id);
    for (std::size_t s = 0; s < da.state_time.size(); ++s) {
      EXPECT_DOUBLE_EQ(da.state_time[s], db.state_time[s]);
    }
    EXPECT_EQ(da.spin_ups, db.spin_ups);
    EXPECT_EQ(da.spin_downs, db.spin_downs);
    EXPECT_EQ(da.served, db.served);
    EXPECT_EQ(da.bytes_served, db.bytes_served);
    EXPECT_EQ(da.queued, db.queued);
    EXPECT_EQ(da.in_service, db.in_service);
    EXPECT_EQ(da.positionings, db.positionings);
    EXPECT_EQ(da.idle_periods.total(), db.idle_periods.total());
    EXPECT_EQ(da.response.count(), db.response.count());
    EXPECT_DOUBLE_EQ(da.response.mean(), db.response.mean());
    EXPECT_DOUBLE_EQ(da.response.max(), db.response.max());
    EXPECT_DOUBLE_EQ(da.energy_j, db.energy_j);
    EXPECT_DOUBLE_EQ(da.always_on_j, db.always_on_j);
  }
}

TEST(OrchFleet, BitIdenticalAcrossShardCountsWithEveryMechanismOn) {
  // The tentpole contract extended to orchestration: replica-aware
  // redirection + write off-loading (destage deadline 120 s, well inside
  // the 200 s horizon) + the SLO budget, crossed with a bursty workload
  // and a cache, must stay bit-identical at any shard count.
  const auto cat = fleet_catalog();
  const std::vector<WorkloadSpec> workloads{
      WorkloadSpec::poisson(0.8, 200.0),
      WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0)};
  const std::vector<CacheSpec> caches{CacheSpec::none(),
                                      CacheSpec::lru(util::mb(200.0))};
  for (const auto& w : workloads) {
    for (const auto& c : caches) {
      auto cfg = orch_config(cat);
      cfg.workload = w;
      cfg.cache = c;
      cfg.shards = 1;
      const auto baseline = run_experiment(cfg);
      for (const std::uint32_t shards : {2u, 4u, 8u}) {
        SCOPED_TRACE("workload " + w.spec() + " cache " + c.spec() +
                     " shards " + std::to_string(shards));
        cfg.shards = shards;
        expect_same_physical(baseline, run_experiment(cfg));
      }
    }
  }
}

TEST(OrchFleet, ForegroundStatsExcludeBackgroundDestages) {
  // Off-loading reroutes and destages I/O but never invents or drops a
  // foreground request: request and response counts match the orch-off run
  // on the identical arrival stream, and the always-on log disk serves the
  // absorbed writes without contributing response samples of its own
  // beyond those foreground services.
  const auto cat = fleet_catalog();
  auto on = orch_config(cat);
  const auto with_orch = run_experiment(on);

  ExperimentConfig off = on;
  off.orch = OrchSpec::off();
  off.num_disks = 6;
  off.replicas = 1;
  const auto without = run_experiment(off);

  EXPECT_EQ(with_orch.requests, without.requests);
  EXPECT_EQ(with_orch.response.count(), without.response.count());
  std::uint64_t foreground = 0;
  for (const auto& d : with_orch.per_disk) foreground += d.response.count();
  EXPECT_EQ(foreground, with_orch.response.count());
}

TEST(OrchFleet, ReplicasWithoutOrchestrationAreInert) {
  // Replica copies are laid out after the primary extents, so a run that
  // carries replicas=2 but no orchestration is byte-for-byte the
  // replicas=1 run: nothing reads the copies, nothing moved the originals.
  // Routing ignores the copies too, so the run keeps the routerless path;
  // the router, forced, agrees.
  const auto cat = fleet_catalog();
  auto plain = orch_config(cat);
  plain.orch = OrchSpec::off();
  plain.num_disks = 6;
  plain.replicas = 1;
  const auto baseline = run_experiment(plain);

  auto replicated = plain;
  replicated.replicas = 2;
  EXPECT_EQ(classify_fleet_path(replicated), FleetPath::kShardLocal);
  expect_same_physical(baseline, run_experiment(replicated));
  expect_same_physical(baseline,
                       run_fleet(replicated, 1, FleetPath::kRouted));
}

TEST(OrchFleet, ScenarioStringDrivesTheWholeStack) {
  // The acceptance shape: one scenario string turns everything on.
  const auto spec = ScenarioSpec::parse(
      "catalog=table1(400,5) load=0.9 workload=poisson(1,200) replicas=2 "
      "orch=redirect+offload:2:120+budget:p99:0.5");
  const auto resolved = resolve_scenario(spec);
  const auto& cfg = resolved.config;
  EXPECT_TRUE(cfg.orch.enabled());
  EXPECT_TRUE(cfg.orch.redirect);
  EXPECT_TRUE(cfg.orch.offload);
  EXPECT_TRUE(cfg.orch.budget);
  EXPECT_EQ(cfg.orch.log_disks, 2u);
  EXPECT_DOUBLE_EQ(cfg.orch.destage_deadline_s, 120.0);
  EXPECT_DOUBLE_EQ(cfg.orch.slo_p99_s, 0.5);
  EXPECT_EQ(cfg.replicas, 2u);
  EXPECT_EQ(classify_fleet_path(cfg), FleetPath::kRouted);

  // The log tier appends to whatever the placement allocated.
  const auto base = resolve_scenario(spec.with("orch", "redirect"));
  EXPECT_EQ(cfg.num_disks, base.config.num_disks + 2);

  // And the string-addressed run obeys the same shard-identity contract.
  auto one = cfg;
  one.shards = 1;
  auto four = cfg;
  four.shards = 4;
  expect_same_physical(run_experiment(one), run_experiment(four));
}

} // namespace
} // namespace spindown::sys
