// fleet.h — the simulation engine: one scenario on one or more calendars.
//
// Every run_experiment() lands here.  The event calendar is partitioned
// into per-disk-group sub-simulations (one des::Simulation per shard; disk
// d lives in shard d % shards, so shards=1 is one calendar holding every
// disk).  The cut is clean because the coupling is one-directional: disks
// interact only through the cache and orchestration *at arrival time*, and
// a completion never feeds back into shared state.
//
// One pipeline of three stages runs every scenario:
//   1. the producer generates arrivals in conservative time windows and
//      runs every front-cache access, in global arrival order, recording a
//      hit flag per arrival;
//   2. the router (the calling thread) makes every mapping and
//      orchestration decision in global arrival order and splits each
//      window into per-shard pre-routed batches — rows of orch::Submission,
//      the record the orchestration controller emits, with `disk`
//      rewritten to the shard-local index (global disk shard + l * shards
//      is local index l);
//   3. one worker per shard replays its batches into the shard calendar.
// Stages hand work over lock-free SPSC rings (util/spsc_ring.h), each
// paired with a second ring that recycles drained arenas, so the steady
// state allocates nothing.  Neither the producer's generation nor its cache
// depends on a routing decision, so it can run ahead of the router.
//
// Threads: a one-shard run starts none — the router produces each window
// and replays it itself, through the same produce/route/replay steps.  A
// k-shard run starts k worker threads; the producer gets a thread of its
// own (k + 1 in total) only when the run has a front cache or an
// orchestration controller, and otherwise runs inline on the router, which
// then does little more than generate and look up the mapping.  With no
// feedback path any window length is causally safe; it bounds skew and
// batch memory, never correctness.
//
// Determinism: results are bit-identical at every shard count, because
//   * each disk's RNG is split from the farm RNG in disk-id order;
//   * the producer pulls the one arrival stream draw for draw and accesses
//     the cache in arrival order, whichever thread it runs on;
//   * within a shard, replay uses run_until(arrival) + submit(), so pending
//     disk events at t <= arrival always run before a submission at t —
//     one tie rule whatever the shard count;
//   * aggregation is canonical (RunResult::recompute_from_per_disk):
//     moments fold in disk-id order and histograms merge bin-wise.
// Arrivals are routed without calendar events, so `events` counts disk
// work only and is shard-invariant too.
#pragma once

#include <cstdint>
#include <vector>

#include "sys/experiment.h"

namespace spindown::sys {

/// Pipeline diagnostics for one fleet run: wall-clock and occupancy
/// counters for the bench/regression tooling.  Never part of RunResult or
/// of any determinism contract — two bit-identical runs report different
/// timings.
struct ShardPerf {
  std::uint32_t shard = 0;
  std::uint64_t submissions = 0; ///< requests replayed into this shard
  std::uint64_t batches = 0;     ///< routed batches consumed
  std::uint64_t events = 0;      ///< calendar events executed by the shard
  /// Max full-ring occupancy observed right after a router publish (0 at
  /// one shard): persistent highs mean workers lag the router, persistent
  /// lows mean the router is the bottleneck.
  std::size_t ring_high_water = 0;
};

struct FleetPerf {
  std::uint32_t shards = 0;
  std::uint32_t workers = 0; ///< OS threads driving shard calendars
  /// Router routing time, plus generation and cache filtering when the
  /// producer runs inline.
  double router_busy_s = 0.0;
  /// Router blocked: on a full ring (a worker lagging) or, with a threaded
  /// producer, on an empty generation ring (the producer lagging).
  double router_stall_s = 0.0;
  /// Threaded producer only (0 when it runs inline on the router):
  /// generation plus cache-filtering time, and time blocked on a full
  /// generation ring (the router lagging).
  double producer_busy_s = 0.0;
  double producer_wait_s = 0.0;
  std::vector<ShardPerf> per_shard;    ///< indexed by shard
  std::vector<double> worker_busy_s;   ///< indexed by worker
  std::vector<double> worker_wait_s;   ///< blocked on an empty ring
};

/// Resolve a requested shard count: 0 ("auto") becomes
/// hardware_concurrency clamped so every shard owns at least
/// kAutoMinDisksPerShard disks (oversharding a small farm costs more in
/// pipeline overhead than the extra parallelism returns); any explicit
/// request is honored up to [1, num_disks] — a shard owns at least one
/// disk.
///
/// Threads: a k-shard run starts k worker threads besides the calling
/// thread, which routes, plus a producer thread when the run has a front
/// cache or orchestration.  Auto picks k = hardware threads H on a farm
/// of at least 32·H disks, so such a run has H + 1 threads (H + 2 with a
/// producer) on H hardware threads: the host is oversubscribed by one or
/// two threads, by design.  A stage that waits parks in the ring backoff
/// (spin, then yield, then 50 µs sleeps), so a waiting worker or producer
/// gives its core back; where every stage is busy the extra threads share
/// cores.  Ask for an explicit count (e.g. H − 1) to keep one core per
/// thread.
std::uint32_t effective_shards(std::uint32_t requested,
                               std::uint32_t num_disks);

/// Floor applied to shards=auto only: auto never creates a shard with
/// fewer than this many disks.  Explicit shard counts may.
inline constexpr std::uint32_t kAutoMinDisksPerShard = 32;

/// Run `config` sharded `shards` ways and return the partial RunResults:
/// element 0 is the generator-side partial (request count, cache stats,
/// cache-hit response moments), elements 1..shards are the disk groups
/// (disk d lives in shard d % shards).  Folding the partials with
/// RunResult::merge — in any order — reproduces the one-shard result;
/// run_fleet() does exactly that.  `perf`, when non-null, receives the
/// run's pipeline diagnostics.  `trace`, when non-null and config.obs
/// enables any kind, receives the canonical sim-time event stream
/// (obs::append_canonical order — bit-identical at any shard count) plus,
/// when config.obs.profile is set, wall-clock pipeline stage samples in
/// RunTrace::profile.
/// Requires a positive, finite measurement horizon
/// (WorkloadSpec::measurement_horizon).  Throws std::invalid_argument on
/// config errors.
std::vector<RunResult> run_fleet_partials(const ExperimentConfig& config,
                                          std::uint32_t shards,
                                          FleetPerf* perf = nullptr,
                                          obs::RunTrace* trace = nullptr);

/// Run `config` sharded `shards` ways (>= 1; not auto-resolved) and return
/// the merged result.  Bit-identical to run_experiment at any shard count.
RunResult run_fleet(const ExperimentConfig& config, std::uint32_t shards,
                    FleetPerf* perf = nullptr, obs::RunTrace* trace = nullptr);

/// Exist only for perfbench/perfbench.cpp, which still passes a pipeline
/// selector; there is one pipeline, so the selector is ignored.
enum class FleetPath { kRouted };
inline FleetPath classify_fleet_path(const ExperimentConfig&) {
  return FleetPath::kRouted;
}
inline std::vector<RunResult> run_fleet_partials(
    const ExperimentConfig& config, std::uint32_t shards, FleetPath,
    FleetPerf* perf = nullptr) {
  return run_fleet_partials(config, shards, perf);
}

} // namespace spindown::sys
