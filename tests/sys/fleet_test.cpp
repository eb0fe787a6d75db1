#include "sys/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sys/scenario.h"
#include "util/units.h"
#include "workload/trace.h"

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

ExperimentConfig fleet_config(const workload::FileCatalog& cat,
                              std::uint32_t num_disks = 6) {
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % num_disks);
  }
  cfg.num_disks = num_disks;
  cfg.workload = WorkloadSpec::poisson(0.8, 200.0);
  cfg.seed = 17;
  return cfg;
}

/// Every field of two RunResults must agree bitwise — `events` too: it
/// counts disk work only, which no shard partition changes.
void expect_same_physical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.events, b.events);
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

TEST(FleetInvariance, MatchesSingleCalendarAcrossShardCounts) {
  // The headline contract: the one-shard run — a single calendar holding
  // every disk — and every k-shard run agree on every result field.  The
  // grid deliberately crosses an adaptive policy and a bursty workload with
  // a cache, so per-disk RNG streams, arrival-order cache mutation, and
  // drain behavior are all exercised.
  const auto cat = fleet_catalog();
  const std::vector<PolicySpec> policies{PolicySpec::break_even(),
                                         PolicySpec::ewma()};
  const std::vector<WorkloadSpec> workloads{
      WorkloadSpec::poisson(0.8, 200.0),
      WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0)};
  const std::vector<CacheSpec> caches{CacheSpec::none(),
                                      CacheSpec::lru(util::mb(200.0))};
  for (const auto& p : policies) {
    for (const auto& w : workloads) {
      for (const auto& c : caches) {
        auto cfg = fleet_config(cat);
        cfg.policy = p;
        cfg.workload = w;
        cfg.cache = c;
        cfg.shards = 1;
        const auto baseline = run_experiment(cfg);
        for (const std::uint32_t shards : {2u, 4u, 8u}) {
          SCOPED_TRACE("policy " + p.spec() + " workload " + w.spec() +
                       " cache " + c.spec() + " shards " +
                       std::to_string(shards));
          cfg.shards = shards;
          expect_same_physical(baseline, run_experiment(cfg));
        }
      }
    }
  }
}

TEST(FleetMerge, TwoShardSplitEqualsSingleCalendar) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  cfg.cache = CacheSpec::lru(util::mb(150.0));
  const auto baseline = run_experiment(cfg); // shards == 1
  const auto partials = run_fleet_partials(cfg, 2);
  ASSERT_EQ(partials.size(), 3u); // router + 2 disk groups
  RunResult merged;
  for (const auto& p : partials) merged.merge(p);
  expect_same_physical(baseline, merged);
}

TEST(FleetMerge, FoldIsAssociativeAndOrderIndependent) {
  // merge() recomputes every aggregate from the merged per-disk records, so
  // any fold order over the partials must produce the same bits.
  const auto cat = fleet_catalog();
  const auto cfg = fleet_config(cat);
  const auto partials = run_fleet_partials(cfg, 3);
  ASSERT_EQ(partials.size(), 4u);

  RunResult forward;
  for (const auto& p : partials) forward.merge(p);
  RunResult backward;
  for (auto it = partials.rbegin(); it != partials.rend(); ++it) {
    backward.merge(*it);
  }
  RunResult grouped; // ((0 + 2) + (3 + 1))
  RunResult left, right;
  left.merge(partials[0]).merge(partials[2]);
  right.merge(partials[3]).merge(partials[1]);
  grouped.merge(left).merge(right);

  expect_same_physical(forward, backward);
  expect_same_physical(forward, grouped);

  auto single = cfg;
  single.shards = 1;
  expect_same_physical(run_experiment(single), forward);
}

TEST(FleetMerge, RejectsMismatchedHorizons) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  const auto a = run_experiment(cfg);
  cfg.workload = WorkloadSpec::poisson(0.8, 300.0);
  const auto b = run_experiment(cfg);
  RunResult merged;
  merged.merge(a);
  EXPECT_THROW(merged.merge(b), std::invalid_argument);
}

TEST(FleetMerge, RejectsOverlappingDiskIds) {
  const auto cat = fleet_catalog();
  const auto cfg = fleet_config(cat);
  const auto a = run_experiment(cfg);
  RunResult merged;
  merged.merge(a);
  EXPECT_THROW(merged.merge(a), std::invalid_argument);
}

TEST(DiskMetricsMerge, SumsCountersAndKeepsLowerId) {
  disk::DiskMetrics a, b;
  a.disk_id = 3;
  a.spin_ups = 2;
  a.served = 10;
  a.state_time[0] = 1.5;
  a.energy_j = 100.0;
  a.response.add(1.0);
  a.idle_periods.add(0.5);
  b.disk_id = 1;
  b.spin_ups = 1;
  b.served = 4;
  b.state_time[0] = 2.5;
  b.energy_j = 50.0;
  b.response.add(3.0);
  b.idle_periods.add(2.0, 3);
  a.merge(b);
  EXPECT_EQ(a.disk_id, 1u);
  EXPECT_EQ(a.spin_ups, 3u);
  EXPECT_EQ(a.served, 14u);
  EXPECT_DOUBLE_EQ(a.state_time[0], 4.0);
  EXPECT_DOUBLE_EQ(a.energy_j, 150.0);
  EXPECT_EQ(a.response.count(), 2u);
  EXPECT_DOUBLE_EQ(a.response.mean(), 2.0);
  EXPECT_EQ(a.idle_periods.total(), 4u);
}

TEST(FleetTies, SimultaneousCompletionsMatchSingleCalendar) {
  // Regression for the latent completion-ordering assumption: requests of
  // identical size submitted at the same instant to different disks finish
  // at identical timestamps.  In one calendar those completions execute in
  // insertion order; sharded, each runs on its own calendar.  The result
  // must not depend on that interleaving — canonical aggregation folds
  // per-disk records in disk-id order either way.
  std::vector<workload::FileInfo> files(4);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(80.0); // equal sizes -> equal service times
    files[i].popularity = 0.25;
  }
  const workload::FileCatalog cat{files};
  std::vector<workload::TraceRecord> records;
  for (const double t : {0.5, 40.5, 90.5}) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      records.push_back({t, f, workload::kNoLba});
    }
  }
  const workload::Trace trace{cat, std::move(records)};

  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1, 2, 3}; // one file per disk
  cfg.num_disks = 4;
  cfg.workload = WorkloadSpec::replay(trace);
  cfg.seed = 23;
  const auto baseline = run_experiment(cfg); // shards == 1
  EXPECT_EQ(baseline.requests, 12u);
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    expect_same_physical(baseline, run_fleet(cfg, shards));
  }
}

TEST(EffectiveShards, ClampsToFarmAndResolvesAuto) {
  EXPECT_EQ(effective_shards(1, 100), 1u);
  EXPECT_EQ(effective_shards(4, 100), 4u);
  EXPECT_EQ(effective_shards(8, 3), 3u);  // a shard owns >= 1 disk
  EXPECT_EQ(effective_shards(5, 0), 1u);  // degenerate farm
  EXPECT_GE(effective_shards(0, 64), 1u); // auto: hardware_concurrency
  EXPECT_LE(effective_shards(0, 2), 2u);
}

TEST(EffectiveShards, AutoAppliesTheDisksPerShardFloor) {
  // shards=auto must never land in the oversharded regime: each auto
  // shard owns at least kAutoMinDisksPerShard disks, whatever the host's
  // hardware concurrency.  Explicit shard counts are still honored.
  for (const std::uint32_t disks : {1u, 16u, 31u, 32u, 63u, 64u, 4096u}) {
    const std::uint32_t floor_cap =
        std::max(1u, disks / kAutoMinDisksPerShard);
    EXPECT_LE(effective_shards(0, disks), floor_cap)
        << "disks " << disks;
  }
  EXPECT_EQ(effective_shards(0, 31), 1u); // below one floor's worth
  EXPECT_EQ(effective_shards(8, 16), 8u); // explicit: floor not applied
}

TEST(FleetInvariance, BothPathsAreBitIdenticalOnTheSameScenario) {
  // The two ways the one pipeline replays a cache-less scenario — inline on
  // the calling thread at one shard, and through SPSC rings to k worker
  // threads — must produce bit-identical RunResults, and both must equal
  // run_experiment's.  Crossed with an adaptive policy and a bursty
  // workload so per-disk RNG consumption differs between disks.
  const auto cat = fleet_catalog();
  const std::vector<WorkloadSpec> workloads{
      WorkloadSpec::poisson(0.8, 200.0),
      WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0)};
  for (const auto& w : workloads) {
    auto cfg = fleet_config(cat);
    cfg.policy = PolicySpec::ewma();
    cfg.workload = w;
    const auto baseline = run_experiment(cfg); // shards == 1
    const auto inline_run = run_fleet(cfg, 1);
    expect_same_physical(baseline, inline_run);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE("workload " + w.spec() + " shards " +
                   std::to_string(shards));
      const auto sharded = run_fleet(cfg, shards);
      expect_same_physical(inline_run, sharded);
      EXPECT_EQ(inline_run.events, sharded.events);
    }
  }
}

TEST(FleetPerf, CountersDescribeThePipeline) {
  const auto cat = fleet_catalog();
  const auto cfg = fleet_config(cat);

  FleetPerf perf;
  const auto result = run_fleet(cfg, 3, &perf);
  EXPECT_EQ(perf.shards, 3u);
  EXPECT_EQ(perf.workers, 3u); // one worker thread per shard
  ASSERT_EQ(perf.per_shard.size(), 3u);
  std::uint64_t submitted = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(perf.per_shard[s].shard, s);
    EXPECT_GT(perf.per_shard[s].batches, 0u);
    EXPECT_GE(perf.per_shard[s].ring_high_water, 1u);
    EXPECT_GT(perf.per_shard[s].events, 0u);
    submitted += perf.per_shard[s].submissions;
  }
  EXPECT_EQ(submitted, result.requests); // cache=none: every request lands
  ASSERT_EQ(perf.worker_busy_s.size(), 3u);
  ASSERT_EQ(perf.worker_wait_s.size(), 3u);
  EXPECT_GE(perf.router_busy_s, 0.0);
  EXPECT_GE(perf.router_stall_s, 0.0);
  // Cache-less: the router produces the arrivals itself, so the producer
  // counters stay zero.
  EXPECT_EQ(perf.producer_busy_s, 0.0);
  EXPECT_EQ(perf.producer_wait_s, 0.0);

  // One shard runs every stage inline, cached or not.
  auto cached = cfg;
  cached.cache = CacheSpec::lru(util::mb(200.0));
  FleetPerf one;
  (void)run_fleet(cached, 1, &one);
  EXPECT_EQ(one.producer_busy_s, 0.0);
  EXPECT_EQ(one.producer_wait_s, 0.0);

  // A cached 3-shard run gives the producer its own thread.  Whether it
  // ever outruns the router by all of its window arenas, and so waits,
  // depends on the host's scheduling; its busy time does not.
  FleetPerf threaded;
  const auto r = run_fleet(cached, 3, &threaded);
  EXPECT_GT(r.cache.hits, 0u);
  EXPECT_GT(threaded.producer_busy_s, 0.0);
  EXPECT_GE(threaded.producer_wait_s, 0.0);
  const auto json = to_json(threaded);
  EXPECT_NE(json.find("\"producer_busy_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"producer_wait_s\": "), std::string::npos);
}

TEST(RunFleet, RequiresPositiveHorizon) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  cfg.workload = WorkloadSpec::poisson(0.8, 0.0);
  EXPECT_THROW(run_fleet(cfg, 2), std::invalid_argument);
}

TEST(FleetScenario, ShardsKeySelectsTheFleetPath) {
  // End to end through the scenario grammar: the shards key changes
  // wall-clock strategy only, never the reported result row.
  const ScenarioSpec base = ScenarioSpec::parse(
      "catalog=table1(400,5) load=0.9 policy=break-even "
      "workload=poisson(1,300) seed=9");
  const auto baseline = run_scenario(base);
  const auto sharded = run_scenario(base.with("shards", "4"));
  expect_same_physical(baseline, sharded);
  EXPECT_EQ(to_json(base, baseline).find("shards"), std::string::npos);
  EXPECT_NE(to_json(base.with("shards", "4"), sharded).find("shards=4"),
            std::string::npos);
}

} // namespace
} // namespace spindown::sys
