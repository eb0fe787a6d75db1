// fleet.h — the simulation engine: one scenario on one or more calendars.
//
// Every run_experiment() lands here.  The event calendar is partitioned
// into per-disk-group sub-simulations (one des::Simulation per shard; disk
// d lives in shard d % shards, so shards=1 is one calendar holding every
// disk).  The cut is clean because the coupling is one-directional: disks
// interact only through the cache and orchestration *at arrival time*, and
// a completion never feeds back into shared state.  classify_fleet_path()
// picks one of two pipelines:
//
//   * kShardLocal (routerless) — no front cache and no orchestration, so
//     routing is the pure function mapping[file].  Workers generate
//     arrivals themselves and submit locally: no router, no windows, no
//     cross-thread traffic.  The arrival draws are one global RNG stream,
//     so a worker replays the whole stream and keeps the arrivals its
//     shards own; the independent shard calendars are multiplexed onto
//     min(shards, hardware_concurrency) workers, worker 0 on the calling
//     thread.
//
//   * kRouted (pipelined router) — a cache or the orchestration controller
//     makes routing depend on global arrival order.  The router (the
//     calling thread) generates arrivals in conservative time windows,
//     makes every cache, mapping and orchestration decision in arrival
//     order, and publishes each shard's pre-routed batch over a lock-free
//     SPSC ring (util/spsc_ring.h) to one worker thread per shard; a second
//     ring recycles drained batch arenas, so the steady state allocates
//     nothing.  At one shard the router replays each window itself, through
//     the workers' replay step.  With no feedback path any window length is
//     causally safe; it bounds skew and batch memory, never correctness.
//
// A one-shard run, on either pipeline, starts no thread.
//
// Determinism: results are bit-identical on both pipelines and at every
// shard count, because
//   * each disk's RNG is split from the farm RNG in disk-id order;
//   * arrival streams are replayed draw-for-draw (the router pulls one
//     stream; each routerless worker pulls an identical clone);
//   * within a shard, replay uses run_until(arrival) + submit(), so pending
//     disk events at t <= arrival always run before a submission at t —
//     one tie rule whatever the shard count or pipeline;
//   * aggregation is canonical (RunResult::recompute_from_per_disk):
//     moments fold in disk-id order and histograms merge bin-wise.
// Arrivals are routed without calendar events, so `events` counts disk
// work only and is shard-invariant too.
#pragma once

#include <cstdint>
#include <vector>

#include "sys/experiment.h"

namespace spindown::sys {

/// Which pipeline a fleet run uses.  Never affects results — only the
/// thread/synchronization structure that produces them.
enum class FleetPath {
  kShardLocal, ///< routerless: workers generate + submit locally
  kRouted,     ///< router thread + per-shard SPSC ring pipeline
};

/// Classify `config`: kShardLocal iff routing decisions are
/// shard-decomposable — no front cache (CacheSpec::shard_decomposable) and
/// orchestration off (replicas alone never change where a request goes).
FleetPath classify_fleet_path(const ExperimentConfig& config);

/// Pipeline diagnostics for one fleet run: wall-clock and occupancy
/// counters for the bench/regression tooling.  Never part of RunResult or
/// of any determinism contract — two bit-identical runs report different
/// timings.
struct ShardPerf {
  std::uint32_t shard = 0;
  std::uint64_t submissions = 0; ///< requests replayed into this shard
  std::uint64_t batches = 0;     ///< routed batches consumed (0 fast-path)
  std::uint64_t events = 0;      ///< calendar events executed by the shard
  /// Max full-ring occupancy observed right after a router publish (0 on
  /// the fast path): persistent highs mean workers lag the router,
  /// persistent lows mean the router is the bottleneck.
  std::size_t ring_high_water = 0;
};

struct FleetPerf {
  FleetPath path = FleetPath::kShardLocal;
  std::uint32_t shards = 0;
  std::uint32_t workers = 0; ///< OS threads driving shard calendars
  double router_busy_s = 0.0;  ///< router generation + routing time
  double router_stall_s = 0.0; ///< router blocked on a full ring
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
/// run_fleet() does exactly that.  `path` selects the pipeline;
/// forcing kShardLocal on a non-decomposable config throws
/// std::invalid_argument (the fast path cannot replay cache decisions).
/// `perf`, when non-null, receives the run's pipeline diagnostics.
/// `trace`, when non-null and config.obs enables any kind, receives the
/// canonical sim-time event stream (obs::append_canonical order —
/// bit-identical at any shard count on either pipeline) plus, when
/// config.obs.profile is set, wall-clock pipeline stage samples in
/// RunTrace::profile.
/// Requires a positive, finite measurement horizon
/// (WorkloadSpec::measurement_horizon).  Throws std::invalid_argument on
/// config errors.
std::vector<RunResult> run_fleet_partials(const ExperimentConfig& config,
                                          std::uint32_t shards,
                                          FleetPath path,
                                          FleetPerf* perf = nullptr,
                                          obs::RunTrace* trace = nullptr);

/// Run `config` sharded `shards` ways (>= 1; not auto-resolved) and return
/// the merged result.  Bit-identical to run_experiment at any shard count,
/// whichever pipeline runs.
RunResult run_fleet(const ExperimentConfig& config, std::uint32_t shards,
                    FleetPath path, FleetPerf* perf = nullptr,
                    obs::RunTrace* trace = nullptr);
/// As above with path = classify_fleet_path(config).
RunResult run_fleet(const ExperimentConfig& config, std::uint32_t shards);

} // namespace spindown::sys
