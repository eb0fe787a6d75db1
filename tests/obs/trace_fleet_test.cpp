// Shard-count bit-identity of the canonical trace stream: the sim-time
// events recorded by a sharded fleet run must equal the one-shard run's
// trace exactly (TraceEvent field-wise equality),
// mirroring the RunResult invariance contract in tests/sys/fleet_test.cpp.
// Two scenario streams are also pinned by length and hash, so a change to
// the disk's event mechanics must leave every sim-time edge where it was.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sys/fleet.h"
#include "sys/scenario.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::obs {
namespace {

workload::FileCatalog fleet_catalog(std::size_t n_files = 96) {
  std::vector<workload::FileInfo> files(n_files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(30.0 + 15.0 * static_cast<double>(i % 5));
    files[i].popularity = 1.0 / static_cast<double>(i + 1);
  }
  return workload::FileCatalog{files};
}

sys::ExperimentConfig fleet_config(const workload::FileCatalog& cat,
                                   std::uint32_t num_disks) {
  sys::ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % num_disks);
  }
  cfg.num_disks = num_disks;
  cfg.workload = sys::WorkloadSpec::poisson(3.0, 250.0);
  cfg.seed = 23;
  cfg.policy = sys::PolicySpec::fixed(8.0); // plenty of power transitions
  cfg.obs = sys::ObsSpec::all();
  cfg.obs.profile = false; // profile samples are wall-clock, not compared
  cfg.obs.metrics_interval_s = 40.0;
  return cfg;
}

void expect_same_trace(const RunTrace& a, const RunTrace& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i], b.events[i]) << "event " << i << " differs";
  }
  EXPECT_DOUBLE_EQ(a.horizon_s, b.horizon_s);
}

TEST(TraceFleetIdentity, RouterlessPathMatchesSingleCalendar) {
  // A cache-less scenario routes by mapping alone; the one pipeline must
  // reproduce the one-shard trace at every shard count.
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24); // cache=none

  RunTrace single;
  const auto base = sys::run_experiment(cfg, &single);
  ASSERT_FALSE(single.events.empty());

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    RunTrace sharded;
    const auto r = sys::run_fleet(cfg, shards, nullptr, &sharded);
    expect_same_trace(single, sharded,
                      "cache-less, shards=" + std::to_string(shards));
    EXPECT_EQ(r.events, base.events);
    EXPECT_EQ(r.requests, base.requests);
    EXPECT_DOUBLE_EQ(r.power.energy, base.power.energy);
  }
}

TEST(TraceFleetIdentity, ForcedRouterOnDecomposableConfigMatchesToo) {
  // With no cache and no orchestration the router makes no decisions, so
  // the dispatcher track stays empty and the 4-shard trace equals the
  // one-shard trace.
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 16);

  RunTrace single;
  (void)sys::run_experiment(cfg, &single);
  ASSERT_FALSE(single.events.empty());
  for (const auto& e : single.events) {
    EXPECT_NE(e.track, kDispatcherTrack);
  }
  RunTrace routed;
  (void)sys::run_fleet(cfg, 4, nullptr, &routed);
  expect_same_trace(single, routed, "cache-less, shards=4");
}

TEST(TraceFleetIdentity, RoutedPathMatchesSingleCalendar) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24);
  cfg.cache = sys::CacheSpec::lru(util::mb(200.0)); // router emits hit/miss

  RunTrace single;
  const auto base = sys::run_experiment(cfg, &single);
  ASSERT_FALSE(single.events.empty());
  bool saw_cache_hit = false;
  for (const auto& e : single.events) {
    if (e.kind == Kind::kSpan && e.code == kSpanCacheHit) {
      saw_cache_hit = true;
      EXPECT_EQ(e.track, kDispatcherTrack);
    }
  }
  EXPECT_TRUE(saw_cache_hit) << "scenario must exercise the cache";

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    RunTrace sharded;
    const auto r = sys::run_fleet(cfg, shards, nullptr, &sharded);
    expect_same_trace(single, sharded,
                      "cached, shards=" + std::to_string(shards));
    EXPECT_EQ(r.events, base.events);
    EXPECT_EQ(r.cache.hits, base.cache.hits);
    EXPECT_DOUBLE_EQ(r.power.energy, base.power.energy);
  }
}

void expect_same_welford(const stats::Welford& a, const stats::Welford& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

/// Every RunResult field, bitwise: the summary, both histograms bin by bin,
/// and every per-disk record.
void expect_identical_result(const sys::RunResult& a, const sys::RunResult& b) {
  EXPECT_EQ(sys::to_json(a), sys::to_json(b));
  EXPECT_EQ(a.power.horizon_s, b.power.horizon_s);
  EXPECT_EQ(a.power.energy, b.power.energy);
  EXPECT_EQ(a.power.average_power, b.power.average_power);
  EXPECT_EQ(a.power.always_on_energy, b.power.always_on_energy);
  EXPECT_EQ(a.power.saving_vs_always_on, b.power.saving_vs_always_on);
  EXPECT_EQ(a.power.spin_ups, b.power.spin_ups);
  EXPECT_EQ(a.power.spin_downs, b.power.spin_downs);
  EXPECT_EQ(a.power.state_time, b.power.state_time);
  expect_same_welford(a.response.moments(), b.response.moments());
  const auto& ha = a.response.histogram();
  const auto& hb = b.response.histogram();
  ASSERT_EQ(ha.bins(), hb.bins());
  EXPECT_EQ(ha.total(), hb.total());
  EXPECT_EQ(ha.underflow(), hb.underflow());
  EXPECT_EQ(ha.overflow(), hb.overflow());
  for (std::size_t i = 0; i < ha.bins(); ++i) {
    ASSERT_EQ(ha.bin_count(i), hb.bin_count(i)) << "response bin " << i;
  }
  expect_same_welford(a.hits_response, b.hits_response);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed_at_horizon, b.completed_at_horizon);
  EXPECT_EQ(a.in_flight_at_horizon, b.in_flight_at_horizon);
  ASSERT_EQ(a.per_disk.size(), b.per_disk.size());
  for (std::size_t d = 0; d < a.per_disk.size(); ++d) {
    SCOPED_TRACE("disk " + std::to_string(d));
    const auto& da = a.per_disk[d];
    const auto& db = b.per_disk[d];
    EXPECT_EQ(da.disk_id, db.disk_id);
    EXPECT_EQ(da.state_time, db.state_time);
    EXPECT_EQ(da.spin_ups, db.spin_ups);
    EXPECT_EQ(da.spin_downs, db.spin_downs);
    EXPECT_EQ(da.served, db.served);
    EXPECT_EQ(da.bytes_served, db.bytes_served);
    EXPECT_EQ(da.queued, db.queued);
    EXPECT_EQ(da.in_service, db.in_service);
    EXPECT_EQ(da.destage_served, db.destage_served);
    EXPECT_EQ(da.destage_pending, db.destage_pending);
    EXPECT_EQ(da.positionings, db.positionings);
    ASSERT_EQ(da.idle_periods.bins(), db.idle_periods.bins());
    EXPECT_EQ(da.idle_periods.total(), db.idle_periods.total());
    for (std::size_t i = 0; i < da.idle_periods.bins(); ++i) {
      EXPECT_EQ(da.idle_periods.bin_count(i), db.idle_periods.bin_count(i));
    }
    expect_same_welford(da.response, db.response);
    EXPECT_EQ(da.energy_j, db.energy_j);
    EXPECT_EQ(da.always_on_j, db.always_on_j);
  }
}

TEST(TraceFleetIdentity, ProducerThreadKeepsOrchestratedCachedRunIdentical) {
  // The producer flags cache hits — inline on the router at one shard, on
  // its own thread at two or more — and the router emits the hit/miss
  // spans from those flags, interleaved with the controller's decisions.
  // Every result field and the canonical trace must not notice which
  // thread computed the flags.
  const auto spec = sys::ScenarioSpec::parse(
      "catalog=table1(2000,5) load=0.5 policy=ewma cache=lru:32g replicas=2 "
      "orch=redirect+offload:4+writes:0.1 workload=poisson(2,4000) seed=11 "
      "obs=spans+policy");
  RunTrace one;
  sys::FleetPerf one_perf;
  const auto base = sys::run_scenario(spec.with("shards", "1"), &one,
                                      &one_perf);
  EXPECT_EQ(one_perf.producer_busy_s, 0.0); // inline: no producer thread
  bool redirect = false, offload = false, destage = false, hit = false;
  for (const auto& e : one.events) {
    redirect = redirect || (e.kind == Kind::kSpan && e.code == kSpanRedirect);
    hit = hit || (e.kind == Kind::kSpan && e.code == kSpanCacheHit);
    offload = offload || (e.kind == Kind::kPolicy && e.code == kPolicyOffload);
    destage = destage || (e.kind == Kind::kPolicy && e.code == kPolicyDestage);
  }
  EXPECT_TRUE(redirect && offload && destage && hit);
  EXPECT_GT(base.cache.hits, 150u); // hits in most of the ~256 windows

  for (const std::uint32_t shards : {2u, 3u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunTrace sharded;
    sys::FleetPerf perf;
    const auto r = sys::run_scenario(
        spec.with("shards", std::to_string(shards)), &sharded, &perf);
    EXPECT_GT(perf.producer_busy_s, 0.0); // the producer had a thread
    expect_identical_result(base, r);
    expect_same_trace(one, sharded, "cached+orchestrated");
  }
}

TEST(TraceFleetIdentity, TracedFleetRunMatchesUntracedResult) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24);

  const auto plain = sys::run_fleet(cfg, 4);
  RunTrace trace;
  const auto traced = sys::run_fleet(cfg, 4, nullptr, &trace);
  // Tracing is read-only — including the engine's event counter (sampler
  // ticks are subtracted).
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(traced.requests, plain.requests);
  EXPECT_DOUBLE_EQ(traced.power.energy, plain.power.energy);
  EXPECT_DOUBLE_EQ(traced.response.mean(), plain.response.mean());
}

TEST(TraceFleetProfile, ProfileSamplesStayOutOfTheCanonicalStream) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 16);
  cfg.obs.profile = true;

  // Cache-less and cached runs take the same pipeline, so both sample every
  // one of its stages — the producer's too, whether it runs inline on the
  // router (cache-less) or on its own thread (cached).
  for (const auto& cache :
       {sys::CacheSpec::none(), sys::CacheSpec::lru(util::mb(200.0))}) {
    SCOPED_TRACE("cache " + cache.spec());
    cfg.cache = cache;
    RunTrace trace;
    (void)sys::run_fleet(cfg, 4, nullptr, &trace);
    EXPECT_EQ(trace.shards, 4u);
    for (const auto& e : trace.events) {
      EXPECT_NE(e.kind, Kind::kProfile);
    }
    bool fill = false, wait = false, replay = false, produce = false;
    for (const auto& e : trace.profile) {
      EXPECT_EQ(e.kind, Kind::kProfile);
      EXPECT_GE(e.value, 0.0);
      fill = fill || e.code == kProfRouterFill;
      wait = wait || e.code == kProfRingWait;
      replay = replay || e.code == kProfWorkerReplay;
      produce = produce || e.code == kProfProducerFill;
      if (e.code == kProfRouterFill) {
        EXPECT_EQ(e.track, kDispatcherTrack);
      }
      if (e.code == kProfProducerFill) {
        EXPECT_EQ(e.track, kProducerTrack);
      }
    }
    EXPECT_TRUE(fill && wait && replay && produce)
        << "every pipeline stage must be sampled";
  }
}

/// Byte length and 64-bit FNV-1a hash of the canonical sim-time stream
/// (`RunTrace::events`; profile samples are wall-clock and excluded).  Each
/// event is serialized field by field, little-endian, doubles by their bit
/// pattern: t, id, value, aux (8 bytes each), track (4), kind, code (1).
struct StreamDigest {
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;

  void feed(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
    bytes += static_cast<std::uint64_t>(width);
  }
};

StreamDigest digest(const RunTrace& trace) {
  StreamDigest d;
  for (const TraceEvent& e : trace.events) {
    d.feed(std::bit_cast<std::uint64_t>(e.t), 8);
    d.feed(e.id, 8);
    d.feed(std::bit_cast<std::uint64_t>(e.value), 8);
    d.feed(std::bit_cast<std::uint64_t>(e.aux), 8);
    d.feed(e.track, 4);
    d.feed(static_cast<std::uint8_t>(e.kind), 1);
    d.feed(e.code, 1);
  }
  return d;
}

RunTrace traced_scenario(const std::string& text, double metrics_interval_s) {
  auto spec = sys::ScenarioSpec::parse(text);
  spec.obs.metrics_interval_s = metrics_interval_s;
  RunTrace trace;
  (void)sys::run_scenario(spec, &trace);
  return trace;
}

// Captured from the disk that scheduled a calendar event for every
// positioning-to-transfer edge and cancelled its idle timer on every
// arrival; the one-event-per-job disk must emit the identical stream.  The
// cache-less scenario was also captured on the since-deleted routerless
// shard-local pipeline; the router must reproduce it exactly.
TEST(TracePin, ShardLocalSstfFixedTimeoutStreamIsPinned) {
  const auto trace = traced_scenario(
      "catalog=synth(2000,0.2,1m,independent,3) placement=random disks=32 "
      "policy=fixed:5 sched=sstf workload=poisson(40,300) seed=3 obs=all",
      7.0);
  const auto d = digest(trace);
  EXPECT_EQ(trace.events.size(), 109282u);
  EXPECT_EQ(d.bytes, 4152716u);
  EXPECT_EQ(d.hash, 0xa5b3b5b1c7a60bffull);
}

// The run's one log disk backs up past a spin-up, so the stream also pins
// the off-load guard: such writes go through to their sleeping primary.
TEST(TracePin, RoutedOrchestratedEwmaStreamIsPinned) {
  const auto trace = traced_scenario(
      "catalog=table1(2000,5) load=0.5 policy=ewma cache=lru:2g replicas=2 "
      "orch=redirect+offload+writes:0.1+budget:p99:30 "
      "workload=poisson(2,12000) shards=3 seed=5 obs=all",
      60.0);
  const auto d = digest(trace);
  EXPECT_EQ(trace.events.size(), 242296u);
  EXPECT_EQ(d.bytes, 9207248u);
  EXPECT_EQ(d.hash, 0x364d2e2678d62065ull);
  // The stream must exercise every mechanism the scenario names.
  bool redirect = false, offload = false, destage = false, hit = false;
  for (const auto& e : trace.events) {
    redirect = redirect || (e.kind == Kind::kSpan && e.code == kSpanRedirect);
    hit = hit || (e.kind == Kind::kSpan && e.code == kSpanCacheHit);
    offload = offload || (e.kind == Kind::kPolicy && e.code == kPolicyOffload);
    destage = destage || (e.kind == Kind::kPolicy && e.code == kPolicyDestage);
  }
  EXPECT_TRUE(redirect && offload && destage && hit);
}

} // namespace
} // namespace spindown::obs
