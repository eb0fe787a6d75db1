// Shard-count bit-identity of the canonical trace stream: the sim-time
// events recorded by a sharded fleet run — on either pipeline — must equal
// the one-shard run's trace exactly (TraceEvent field-wise equality),
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
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24); // cache=none -> shard-decomposable

  RunTrace single;
  const auto base = sys::run_experiment(cfg, &single);
  ASSERT_FALSE(single.events.empty());

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    RunTrace sharded;
    const auto r = sys::run_fleet(cfg, shards, sys::FleetPath::kShardLocal,
                                  nullptr, &sharded);
    expect_same_trace(single, sharded,
                      "shard-local, shards=" + std::to_string(shards));
    EXPECT_EQ(r.events, base.events);
    EXPECT_EQ(r.requests, base.requests);
    EXPECT_DOUBLE_EQ(r.power.energy, base.power.energy);
  }
}

TEST(TraceFleetIdentity, RoutedPathMatchesSingleCalendar) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24);
  cfg.cache = sys::CacheSpec::lru(util::mb(200.0)); // forces the router

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
    const auto r = sys::run_fleet(cfg, shards, sys::FleetPath::kRouted,
                                  nullptr, &sharded);
    expect_same_trace(single, sharded,
                      "routed, shards=" + std::to_string(shards));
    EXPECT_EQ(r.events, base.events);
    EXPECT_EQ(r.cache.hits, base.cache.hits);
    EXPECT_DOUBLE_EQ(r.power.energy, base.power.energy);
  }
}

TEST(TraceFleetIdentity, ForcedRouterOnDecomposableConfigMatchesToo) {
  // cache=none normally takes the fast path; forcing the router must
  // produce the same trace — the dispatcher track is simply empty (no
  // cache, no hit/miss events), exactly like the routerless run.
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 16);

  RunTrace single;
  (void)sys::run_experiment(cfg, &single);
  RunTrace routed;
  (void)sys::run_fleet(cfg, 4, sys::FleetPath::kRouted, nullptr, &routed);
  expect_same_trace(single, routed, "forced router, shards=4");
}

TEST(TraceFleetIdentity, TracedFleetRunMatchesUntracedResult) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24);

  const auto plain = sys::run_fleet(cfg, 4, sys::FleetPath::kShardLocal);
  RunTrace trace;
  const auto traced =
      sys::run_fleet(cfg, 4, sys::FleetPath::kShardLocal, nullptr, &trace);
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

  RunTrace fast;
  (void)sys::run_fleet(cfg, 4, sys::FleetPath::kShardLocal, nullptr, &fast);
  EXPECT_FALSE(fast.profile.empty());
  for (const auto& e : fast.events) {
    EXPECT_NE(e.kind, Kind::kProfile);
  }
  for (const auto& e : fast.profile) {
    EXPECT_EQ(e.kind, Kind::kProfile);
    EXPECT_EQ(e.code, kProfWorkerReplay); // no router on the fast path
    EXPECT_GE(e.value, 0.0);
  }

  RunTrace routed;
  cfg.cache = sys::CacheSpec::lru(util::mb(200.0));
  (void)sys::run_fleet(cfg, 4, sys::FleetPath::kRouted, nullptr, &routed);
  bool fill = false, wait = false, replay = false;
  for (const auto& e : routed.profile) {
    fill = fill || e.code == kProfRouterFill;
    wait = wait || e.code == kProfRingWait;
    replay = replay || e.code == kProfWorkerReplay;
    if (e.code == kProfRouterFill) {
      EXPECT_EQ(e.track, kDispatcherTrack);
    }
  }
  EXPECT_TRUE(fill && wait && replay)
      << "all three pipeline stages must be sampled";
  EXPECT_EQ(routed.shards, 4u);
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
// arrival; the one-event-per-job disk must emit the identical stream.
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

TEST(TracePin, RoutedOrchestratedEwmaStreamIsPinned) {
  const auto trace = traced_scenario(
      "catalog=table1(2000,5) load=0.5 policy=ewma cache=lru:2g replicas=2 "
      "orch=redirect+offload+writes:0.1+budget:p99:30 "
      "workload=poisson(2,12000) shards=3 seed=5 obs=all",
      60.0);
  const auto d = digest(trace);
  EXPECT_EQ(trace.events.size(), 245539u);
  EXPECT_EQ(d.bytes, 9330482u);
  EXPECT_EQ(d.hash, 0x1d3c9e45df3fbfc9ull);
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
