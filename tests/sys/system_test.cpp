// The simulated storage system end to end through run_experiment — the
// horizon snapshot, in-flight accounting, policies, schedulers and
// determinism — plus the spec vocabulary of sys/system.h.
#include "sys/system.h"

#include <gtest/gtest.h>

#include <set>

#include "sys/experiment.h"
#include "util/units.h"
#include "workload/trace.h"

namespace spindown::sys {
namespace {

workload::FileCatalog uniform_catalog(std::size_t n, util::Bytes size) {
  std::vector<workload::FileInfo> files(n);
  for (std::size_t i = 0; i < n; ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = size;
    files[i].popularity = 1.0 / static_cast<double>(n);
  }
  return workload::FileCatalog{files};
}

/// Replay `trace` on `mapping`: the measurement window is the trace's
/// duration + 1 s.
ExperimentConfig replay(const workload::FileCatalog& cat,
                        const workload::Trace& trace,
                        std::vector<std::uint32_t> mapping,
                        std::uint32_t num_disks, const PolicySpec& policy) {
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = std::move(mapping);
  cfg.num_disks = num_disks;
  cfg.policy = policy;
  cfg.workload = WorkloadSpec::replay(trace);
  return cfg;
}

TEST(PolicySpec, FactoryNames) {
  const auto p = disk::DiskParams::st3500630as();
  EXPECT_EQ(PolicySpec::never().name(p), "never");
  EXPECT_EQ(PolicySpec::fixed(10.0).name(p), "fixed(10 s)");
  EXPECT_EQ(PolicySpec::randomized().name(p), "randomized-competitive");
  EXPECT_NE(PolicySpec::break_even().name(p).find("53.2"), std::string::npos);
}

TEST(AlwaysOnEnergy, ClosedForm) {
  const auto p = disk::DiskParams::st3500630as();
  // 10 disks for 100 s, no service at all: pure idle.
  EXPECT_DOUBLE_EQ(always_on_energy(p, 10, 100.0, 0.0, 0.0),
                   10 * 100.0 * 9.3);
  // Service premium: position at seek power, transfer at active power.
  EXPECT_DOUBLE_EQ(always_on_energy(p, 1, 100.0, 2.0, 3.0),
                   100.0 * 9.3 + 2.0 * (12.6 - 9.3) + 3.0 * (13.0 - 9.3));
}

TEST(StorageSystem, ValidatesMapping) {
  const auto cat = uniform_catalog(2, util::mb(10.0));
  const workload::Trace trace{cat, {{0.0, 0}}};
  auto cfg = replay(cat, trace, {0, 5}, 2, PolicySpec::never());
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(StorageSystem, TraceRunAccountsEveryRequest) {
  const auto cat = uniform_catalog(4, util::mb(72.0));
  const workload::Trace trace{
      cat, {{0.0, 0}, {1.0, 1}, {2.0, 2}, {3.0, 3}, {100.0, 0}}};
  const auto r =
      run_experiment(replay(cat, trace, {0, 0, 1, 1}, 2, PolicySpec::never()));
  EXPECT_EQ(r.requests, 5u);
  EXPECT_EQ(r.response.count(), 5u);
  EXPECT_EQ(r.per_disk.size(), 2u);
  // The per-disk snapshot is taken at the measurement horizon (trace end
  // + 1 s); the final request is still in service there.
  EXPECT_EQ(r.per_disk[0].served + r.per_disk[1].served, 4u);
}

TEST(StorageSystem, NeverPolicyMatchesAlwaysOnEnergy) {
  // With spin-down disabled, measured energy must equal the closed-form
  // always-on normalizer (same integration window) — saving == 0.
  const auto cat = uniform_catalog(3, util::mb(144.0));
  const workload::Trace trace{cat, {{5.0, 0}, {17.0, 1}, {31.0, 2}}};
  const auto r =
      run_experiment(replay(cat, trace, {0, 1, 2}, 3, PolicySpec::never()));
  EXPECT_NEAR(r.power.energy, r.power.always_on_energy, 1e-6);
  EXPECT_NEAR(r.power.saving_vs_always_on, 0.0, 1e-9);
  EXPECT_EQ(r.power.spin_downs, 0u);
}

TEST(StorageSystem, AggressivePolicySavesEnergyOnSparseLoad) {
  const auto cat = uniform_catalog(3, util::mb(72.0));
  // One request per disk, a long quiet tail, and a last request that ends
  // the trace — and so the 4000 s measurement window — at 3999 s.
  const workload::Trace trace{
      cat, {{0.0, 0}, {1.0, 1}, {2.0, 2}, {3999.0, 0}}};

  auto run_with = [&](PolicySpec policy) {
    return run_experiment(replay(cat, trace, {0, 1, 2}, 3, policy));
  };
  const auto never = run_with(PolicySpec::never());
  const auto fixed = run_with(PolicySpec::fixed(30.0));
  EXPECT_LT(fixed.power.energy, never.power.energy);
  EXPECT_GT(fixed.power.saving_vs_always_on, 0.5); // mostly standby
  EXPECT_EQ(fixed.power.spin_downs, 3u);
  EXPECT_EQ(fixed.power.spin_ups, 1u); // the last request wakes disk 0
  // Power is measured over the same fixed window.
  EXPECT_DOUBLE_EQ(fixed.power.horizon_s, 4000.0);
  EXPECT_DOUBLE_EQ(never.power.horizon_s, 4000.0);
}

TEST(StorageSystem, SpinUpPenaltyVisibleInResponseTimes) {
  const auto cat = uniform_catalog(1, util::mb(72.0));
  const auto params = disk::DiskParams::st3500630as();
  // Second request arrives long after the disk has gone to standby.
  const workload::Trace trace{cat, {{0.0, 0}, {500.0, 0}}};
  const auto r =
      run_experiment(replay(cat, trace, {0}, 1, PolicySpec::fixed(20.0)));
  EXPECT_EQ(r.power.spin_ups, 1u);
  EXPECT_NEAR(r.response.max(),
              params.spinup_s + params.service_time(util::mb(72.0)), 1e-9);
  EXPECT_NEAR(r.response.min(), params.service_time(util::mb(72.0)), 1e-9);
}

TEST(StorageSystem, DeterministicAcrossRuns) {
  const auto cat = uniform_catalog(20, util::mb(100.0));
  auto run_once = [&] {
    ExperimentConfig cfg;
    cfg.catalog = &cat;
    cfg.mapping.resize(20);
    for (std::uint32_t i = 0; i < 20; ++i) cfg.mapping[i] = i % 4;
    cfg.num_disks = 4;
    cfg.workload = WorkloadSpec::poisson(0.5, 500.0);
    cfg.seed = 7;
    return run_experiment(cfg);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.power.energy, b.power.energy);
  EXPECT_EQ(a.response.count(), b.response.count());
  EXPECT_DOUBLE_EQ(a.response.mean(), b.response.mean());
  EXPECT_EQ(a.events, b.events);
}

TEST(StorageSystem, RandomizedPolicySeedsDifferPerDisk) {
  // All disks idle from t=0 with no requests: randomized policy should give
  // them different spin-down times (they draw from split RNG streams).
  const auto cat = uniform_catalog(2, util::mb(10.0));
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1};
  cfg.num_disks = 8;
  cfg.policy = PolicySpec::randomized();
  // A vanishing rate: no arrival lands in the 200 s window.
  cfg.workload = WorkloadSpec::poisson(1e-9, 200.0);
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.requests, 0u);
  EXPECT_EQ(r.power.spin_downs, 8u);
  // Idle times differ across disks (probability of a tie ~ 0).
  std::set<double> idle_times;
  for (const auto& m : r.per_disk) {
    idle_times.insert(m.time_in(disk::PowerState::kIdle));
  }
  EXPECT_GT(idle_times.size(), 1u);
}

TEST(SchedulerSpecTest, FactoryNamesAndParse) {
  EXPECT_EQ(SchedulerSpec::fcfs().name(), "fcfs");
  EXPECT_EQ(SchedulerSpec::sstf().name(), "sstf");
  EXPECT_EQ(SchedulerSpec::scan().name(), "scan");
  EXPECT_EQ(SchedulerSpec::clook().name(), "clook");
  EXPECT_EQ(SchedulerSpec::batch(8).name(), "batch8");
  EXPECT_EQ(SchedulerSpec::parse("sstf").name(), "sstf");
  EXPECT_EQ(SchedulerSpec::parse("fcfs").kind, SchedulerSpec::Kind::kFcfs);
  // name() round-trips through parse(), including the parameterized batch.
  EXPECT_EQ(SchedulerSpec::parse("batch8").max_batch, 8u);
  EXPECT_EQ(SchedulerSpec::parse(SchedulerSpec::batch(8).name()).name(),
            "batch8");
  EXPECT_THROW(SchedulerSpec::parse("elevator"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batchx"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batch0"), std::invalid_argument);
}

TEST(StorageSystem, SchedulerDisciplineDifferentiatesQueueBuildingLoad) {
  // 40 small files on one disk, all requested in one burst in shuffled
  // order: the queue is deep, FCFS jumps across the layout while the
  // geometry-aware disciplines sweep it — mean response and energy must
  // differ, and the batching scheduler must coalesce positioning phases.
  // One last lone request at 599 s stretches the measurement window to
  // 600 s, well past the drain.
  const auto cat = uniform_catalog(40, util::mb(8.0));
  std::vector<workload::TraceRecord> records;
  for (std::size_t i = 0; i < 40; ++i) {
    // Deterministic shuffle: stride 17 is coprime with 40.
    records.push_back({0.0, static_cast<workload::FileId>((i * 17) % 40)});
  }
  records.push_back({599.0, 0});
  const workload::Trace trace{cat, std::move(records)};

  auto run_with = [&](const SchedulerSpec& spec) {
    auto cfg = replay(cat, trace, std::vector<std::uint32_t>(40, 0), 1,
                      PolicySpec::never());
    cfg.scheduler = spec;
    return run_experiment(cfg);
  };
  const auto fcfs = run_with(SchedulerSpec::fcfs());
  const auto sstf = run_with(SchedulerSpec::sstf());
  const auto scan = run_with(SchedulerSpec::scan());
  const auto batch = run_with(SchedulerSpec::batch());
  EXPECT_DOUBLE_EQ(fcfs.power.horizon_s, 600.0);

  // The burst built a real queue: mean response far exceeds one service.
  const double svc =
      disk::DiskParams::st3500630as().service_time(util::mb(8.0));
  EXPECT_GT(fcfs.response.mean(), 5.0 * svc);

  // Geometry-aware sweeps position cheaper than the constant-cost FCFS.
  EXPECT_LT(sstf.response.mean(), fcfs.response.mean());
  EXPECT_LT(scan.response.mean(), fcfs.response.mean());
  EXPECT_LT(batch.response.mean(), fcfs.response.mean());
  EXPECT_LT(sstf.power.energy, fcfs.power.energy);
  EXPECT_LT(batch.power.energy, fcfs.power.energy);

  // Batching coalesced adjacent extents: fewer positioning phases than
  // requests; the one-at-a-time disciplines pay one per request.
  auto positionings = [](const RunResult& r) {
    std::uint64_t n = 0;
    for (const auto& m : r.per_disk) n += m.positionings;
    return n;
  };
  EXPECT_EQ(positionings(fcfs), 41u);
  EXPECT_EQ(positionings(sstf), 41u);
  EXPECT_LT(positionings(batch), 41u);

  // Every discipline serves every request exactly once.
  for (const auto* r : {&fcfs, &sstf, &scan, &batch}) {
    EXPECT_EQ(r->response.count(), 41u);
    EXPECT_EQ(r->completed_at_horizon, 41u);
    EXPECT_EQ(r->in_flight_at_horizon, 0u);
  }
}

TEST(StorageSystem, HorizonSnapshotCountsInFlightExactlyOnce) {
  // Two disks, 10 s transfers; the last request (at 10 s) sets the
  // measurement horizon to 11 s.  There disk 0 has one request served, one
  // mid-transfer and one queued; disk 1 has one mid-transfer and one
  // queued.  The snapshot must place each of the five requests in exactly
  // one bucket, while the response summary still drains them all.
  const auto cat = uniform_catalog(4, util::mb(720.0));
  const workload::Trace trace{
      cat, {{0.0, 0}, {0.0, 1}, {2.0, 2}, {2.5, 3}, {10.0, 0}}};
  const auto r =
      run_experiment(replay(cat, trace, {0, 0, 1, 1}, 2, PolicySpec::never()));
  EXPECT_DOUBLE_EQ(r.power.horizon_s, 11.0);
  EXPECT_EQ(r.requests, 5u);
  EXPECT_EQ(r.completed_at_horizon, 1u);
  EXPECT_EQ(r.in_flight_at_horizon, 4u);
  EXPECT_EQ(r.completed_at_horizon + r.in_flight_at_horizon + r.cache.hits,
            r.requests);
  // Disk 0: served 1, transferring 1, queued 1.  Disk 1: transferring 1,
  // queued 1.
  EXPECT_EQ(r.per_disk[0].served, 1u);
  EXPECT_EQ(r.per_disk[0].in_service, 1u);
  EXPECT_EQ(r.per_disk[0].queued, 1u);
  EXPECT_EQ(r.per_disk[1].served, 0u);
  EXPECT_EQ(r.per_disk[1].in_service, 1u);
  EXPECT_EQ(r.per_disk[1].queued, 1u);
  // All requests still run to completion and record response times.
  EXPECT_EQ(r.response.count(), 5u);
}

} // namespace
} // namespace spindown::sys
