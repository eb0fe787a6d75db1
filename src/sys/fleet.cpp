#include "sys/fleet.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "des/simulation.h"
#include "disk/disk.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "orch/controller.h"
#include "stats/summary.h"
#include "stats/welford.h"
#include "util/rng.h"
#include "util/spsc_ring.h"
#include "workload/stream.h"

namespace spindown::sys {
namespace {

// FleetPerf pipeline diagnostics and kProfile trace samples only: the
// measured durations are reported to benches/traces and never touch a
// RunResult.  obs/profile.h is the repo's sole wall-clock site.
using PerfClock = obs::ProfileClock;
using obs::seconds_since;

/// Ring capacity and arena count per routed shard: bounds router run-ahead
/// (and batch memory) without stalling workers that lag a window or two.
/// Because the router can only hold batches it popped from the free ring,
/// the full ring can never overflow — the free ring is the one
/// backpressure point in the pipeline.
constexpr std::size_t kBatchesPerShard = 16;

/// Window arenas between a threaded producer and the router: enough for the
/// producer to run a few windows ahead of a router busy on a dense window,
/// few enough that generated-but-unrouted arrivals stay a small buffer.
constexpr std::size_t kWindowArenas = 4;

/// Advance `frontier` one window and fill `block` with every arrival below
/// it.  Across an idle stretch the frontier jumps to the window after the
/// next arrival instead of stepping through empty windows one by one.
double fill_window(workload::WindowedStream& windowed, double frontier,
                   double window, workload::RequestBlock& block) {
  frontier += window;
  if (windowed.next_arrival() >= frontier) {
    frontier = windowed.next_arrival() + window;
  }
  block.clear();
  windowed.fill(frontier, std::numeric_limits<std::size_t>::max(), block);
  return frontier;
}

/// One generated window: every arrival below `frontier` and, when the run
/// has a front cache, one flag per arrival (1 = served by the cache).
/// Recycled through the producer's free ring like ShardBatch.
struct WindowArena {
  workload::RequestBlock block;
  std::vector<std::uint8_t> hit;
  double frontier = 0.0;
};

/// Profile samples are wall-clock (never part of the determinism
/// contract); order them by lane then start offset for readability.
void sort_profile(std::vector<obs::TraceEvent>& profile) {
  std::stable_sort(profile.begin(), profile.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (obs::track_rank(a.track) != obs::track_rank(b.track))
                       return obs::track_rank(a.track) <
                              obs::track_rank(b.track);
                     return a.t < b.t;
                   });
}

/// Pre-routed submissions for one shard, one synchronization window, with
/// `disk` rewritten to the shard-local index.  Instances live in per-shard
/// arenas and are recycled through the free ring — reset() keeps vector
/// capacity, so the steady state allocates nothing.
struct ShardBatch {
  std::vector<orch::Submission> subs;
  /// The routed frontier: the worker may advance its clock here after
  /// replaying the batch (the router has routed every arrival below it).
  double advance_to = 0.0;
  bool final = false;

  void reset() {
    subs.clear();
    advance_to = 0.0;
    final = false;
  }
};

/// Everything the pipeline derives from the config before any thread
/// starts: the shard partition, the per-disk RNGs (split in disk-id order
/// on the calling thread, so each disk's draw stream is a function of
/// (seed, disk id) alone, never of the partition), and the shared
/// read-only layout.
struct FleetSetup {
  std::uint32_t shards = 0;
  double horizon = 0.0;
  std::vector<std::vector<std::uint32_t>> disk_ids;      ///< per shard
  std::vector<std::vector<util::Rng>> rngs;              ///< per shard
  std::vector<std::vector<const PolicySpec*>> policies;  ///< per shard
  std::vector<workload::FileExtent> extents;
  /// The orchestration log tier never sleeps — it absorbs writes precisely
  /// because it is always on (policies[] points here for log disks).
  PolicySpec log_policy = PolicySpec::never();
  /// Tracing: the sim-time kinds every shard calendar records (kProfile
  /// samples are collected by the pipeline itself), and whether the
  /// pipeline stages are profiled, as wall-clock offsets from the run-wide
  /// prof_t0 so every lane shares one time origin.
  std::uint32_t sim_mask = 0;
  bool profiling = false;
  PerfClock::time_point prof_t0 = PerfClock::now();

  /// `trace` is non-null only when the run records something.
  FleetSetup(const ExperimentConfig& config, std::uint32_t shards_in,
             const obs::RunTrace* trace)
      : shards(shards_in), disk_ids(shards_in), rngs(shards_in),
        policies(shards_in) {
    horizon = config.workload.measurement_horizon();
    if (trace != nullptr) {
      sim_mask =
          config.obs.kind_mask() & ~obs::kind_bit(obs::Kind::kProfile);
      profiling = config.obs.profile;
    }
    util::Rng farm_rng{config.seed};
    for (std::uint32_t d = 0; d < config.num_disks; ++d) {
      const std::uint32_t w = d % shards;
      disk_ids[w].push_back(d);
      rngs[w].push_back(farm_rng.split());
      const PolicySpec* policy = &config.policy;
      for (const auto& [disk_id, override_policy] : config.policy_overrides) {
        if (disk_id == d) policy = &override_policy; // last override wins
      }
      if (config.orch.offload &&
          d >= config.num_disks - config.orch.log_disks) {
        policy = &log_policy;
      }
      policies[w].push_back(policy);
    }
    extents = workload::layout_extents(*config.catalog, config.mapping,
                                       config.num_disks);
  }
};

// ---------------------------------------------------------------------------
// The pipeline: a router on the calling thread, lock-free per-shard rings,
// recycled batch arenas.
// ---------------------------------------------------------------------------

/// Raised inside the router loop when a worker closed its rings (the
/// worker's own exception is the root cause and is rethrown after join).
struct PipelineAborted {};

/// One shard of the pipeline.  Its private calendar holds the disks with
/// id % shards == shard (local index l holds global disk shard + l *
/// shards), with per-disk response accumulators and the horizon-snapshot
/// rule.  The full ring (router -> worker) carries filled batches and the
/// free ring (worker -> router) recycles drained arenas.  The arenas
/// double-buffer generically: the router fills window N+1 (or several)
/// while the worker drains window N, and a full free ring is what parks an
/// idle router.
/// Heap-allocated and never moved: the completion callbacks capture member
/// addresses.
class Shard {
public:
  /// `arenas` <= kBatchesPerShard: the router can run that many windows
  /// ahead of the worker.  A non-zero setup.sim_mask enables tracing into a
  /// shard-private buffer (single-writer: exactly one thread ever drives
  /// this calendar).  The sampler is started after every disk exists, so
  /// its calendar ticks are inserted after all idle timers — the same
  /// insertion order in every shard, hence the same measure-zero tie
  /// resolution.
  Shard(const ExperimentConfig& config, const FleetSetup& setup,
        std::uint32_t shard, std::size_t arenas)
      : shard_(shard), setup_(setup) {
    const auto& disk_ids = setup.disk_ids[shard];
    if (setup.sim_mask != 0) {
      trace_ = std::make_unique<obs::TraceBuffer>(setup.sim_mask);
    }
    disks_.reserve(disk_ids.size());
    responses_.resize(disk_ids.size());
    for (std::size_t l = 0; l < disk_ids.size(); ++l) {
      disks_.push_back(std::make_unique<disk::Disk>(
          sim_, disk_ids[l], config.params,
          setup.policies[shard][l]->make(config.params), setup.rngs[shard][l],
          config.scheduler.make()));
      if (trace_ != nullptr) disks_.back()->set_trace(trace_.get());
      disks_.back()->set_completion_callback(
          [&resp = responses_[l], this](const disk::Completion& c) {
            if (c.background) return; // destage I/O: not a client response
            resp.add(c.response_time());
            hist_.add(c.response_time());
          });
    }
    if (trace_ != nullptr) {
      sampler_ = std::make_unique<obs::MetricsSampler>(
          sim_, config.obs.metrics_interval_s, setup.horizon, trace_.get());
      for (const auto& d : disks_) sampler_->add_disk(d.get());
      sampler_->start();
    }
    arenas_.reserve(arenas);
    for (std::size_t i = 0; i < arenas; ++i) {
      arenas_.push_back(std::make_unique<ShardBatch>());
      ShardBatch* arena = arenas_.back().get();
      free_ring.try_push(arena); // capacity >= arena count: cannot fail
    }
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Thread body of a worker: replay batches until the final one.
  void run() {
    try {
      consume();
    } catch (...) {
      error = std::current_exception();
      full.close();
      free_ring.close(); // unblock the router; it aborts on the next pop
    }
  }

  /// Replay one published batch into the shard calendar and recycle its
  /// arena; on the final batch, finalize the shard and return true.  The
  /// ring consumer calls it on a worker thread; a one-shard run calls it
  /// on the router thread straight after filling each window.
  bool replay(ShardBatch* batch) {
    const bool profiling = setup_.profiling;
    const double r0 = profiling ? seconds_since(setup_.prof_t0) : 0.0;
    for (const orch::Submission& sub : batch->subs) {
      advance(sub.t);
      disks_[sub.disk]->submit(sub.request_id, sub.bytes, sub.lba, sub.blocks,
                               sub.background);
    }
    submissions += batch->subs.size();
    const bool final = batch->final;
    if (!final && batch->advance_to > sim_.now()) advance(batch->advance_to);
    batch->reset();
    free_ring.try_push(batch); // capacity >= arena count: cannot fail
    if (profiling) {
      prof.push_back(obs::TraceEvent{r0, batches,
                                     seconds_since(setup_.prof_t0) - r0, 0.0,
                                     shard_, obs::Kind::kProfile,
                                     obs::kProfWorkerReplay});
    }
    if (final) finalize();
    return final;
  }

  obs::TraceBuffer* trace_buffer() { return trace_.get(); }

  util::SpscRing<ShardBatch*> full{kBatchesPerShard};
  util::SpscRing<ShardBatch*> free_ring{kBatchesPerShard};
  // Outputs, read after join.
  RunResult partial;
  std::exception_ptr error;
  std::uint64_t submissions = 0;
  std::uint64_t batches = 0;
  double busy_s = 0.0;
  double wait_s = 0.0;
  std::vector<obs::TraceEvent> prof; ///< kProfRingWait / kProfWorkerReplay

private:
  void consume() {
    const auto t0 = PerfClock::now();
    const bool profiling = setup_.profiling;
    const auto prof_t0 = setup_.prof_t0;
    for (;;) {
      ShardBatch* batch = nullptr;
      const auto w0 = PerfClock::now();
      const double wait0 = profiling ? seconds_since(prof_t0) : 0.0;
      if (!full.pop(batch)) return; // rings closed: router-side abort
      wait_s += seconds_since(w0);
      ++batches;
      if (profiling) {
        prof.push_back(obs::TraceEvent{
            wait0, batches, seconds_since(prof_t0) - wait0, 0.0, shard_,
            obs::Kind::kProfile, obs::kProfRingWait});
      }
      if (replay(batch)) break;
    }
    busy_s = seconds_since(t0) - wait_s;
  }

  /// Fixed tie rule: every pending disk event at t <= arrival runs before
  /// a submission at t — identical at any shard count.  The horizon
  /// snapshot (freezing the power/queue counters) is taken before the
  /// local clock first passes the horizon.
  void advance(double t) {
    const double horizon = setup_.horizon;
    if (snapshot_.empty() && t >= horizon) {
      sim_.run_until(horizon);
      snapshot_.reserve(disks_.size());
      for (const auto& d : disks_) snapshot_.push_back(d->metrics(horizon));
    }
    sim_.run_until(t);
  }

  /// Drain into `partial`: in-flight services run to completion past the
  /// horizon and still record their response times.
  void finalize() {
    advance(setup_.horizon);
    sim_.run();
    for (std::size_t l = 0; l < snapshot_.size(); ++l) {
      snapshot_[l].response = responses_[l];
    }
    partial.power.horizon_s = setup_.horizon;
    // Sampler ticks are observation overhead, not simulated physics:
    // subtract them so `events` matches the untraced run bit-for-bit.
    partial.events =
        sim_.executed() - (sampler_ != nullptr ? sampler_->ticks() : 0);
    partial.per_disk = std::move(snapshot_);
    partial.recompute_from_per_disk(hist_);
  }

  std::uint32_t shard_;
  const FleetSetup& setup_;
  des::Simulation sim_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  std::vector<stats::Welford> responses_;
  stats::LinearHistogram hist_{stats::ResponseSummary::kHistLo,
                               stats::ResponseSummary::kHistHi,
                               stats::ResponseSummary::kHistBins};
  std::vector<disk::DiskMetrics> snapshot_;
  std::vector<std::unique_ptr<ShardBatch>> arenas_;
};

/// The pipeline's first stage: generates the arrival stream window by
/// window and runs every front-cache access, in global arrival order.
/// Neither depends on a routing decision, so a threaded producer runs ahead
/// of the router on its own thread, handing filled windows over the full
/// ring and getting routed ones back over the free ring; otherwise next()
/// produces each window on the router's thread into one recycled arena.
/// The cache belongs to this stage alone.
class ArrivalProducer {
public:
  /// A threaded producer is sized on the calling thread — its window
  /// arenas for `reserve` arrivals each, the cache for as many files as it
  /// can hold — so its own thread allocates nothing in the steady state.
  /// That keeps its resident-memory cost to the window arenas: with glibc,
  /// a thread takes a malloc arena of its own on its first allocation.
  ArrivalProducer(workload::RequestStream& stream,
                  const workload::FileCatalog& catalog,
                  cache::FileCache* cache, double window, bool threaded,
                  std::size_t reserve, const FleetSetup& setup)
      : windowed_(stream), catalog_(catalog), cache_(cache), window_(window),
        threaded_(threaded), setup_(setup) {
    const std::size_t count = threaded ? kWindowArenas : 1;
    if (threaded && cache != nullptr) {
      const util::Bytes smallest = std::max<util::Bytes>(1, catalog.min_size());
      cache->reserve(static_cast<std::size_t>(
          std::min<util::Bytes>(catalog.size(), cache->capacity() / smallest)));
    }
    arenas_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      arenas_.push_back(std::make_unique<WindowArena>());
      WindowArena* arena = arenas_.back().get();
      if (threaded) {
        arena->block.arrival.reserve(reserve);
        arena->block.id.reserve(reserve);
        arena->block.file.reserve(reserve);
        arena->block.lba.reserve(reserve);
        if (cache != nullptr) arena->hit.reserve(reserve);
        free_ring_.try_push(arena); // capacity >= arena count: cannot fail
      }
    }
  }

  /// Thread body of a threaded producer: fill windows until the stream is
  /// exhausted, then close the full ring (the router's end of stream).
  void run() {
    try {
      const auto t0 = PerfClock::now();
      for (;;) {
        WindowArena* arena = nullptr;
        if (!free_ring_.try_pop(arena)) {
          const auto w0 = PerfClock::now();
          if (!free_ring_.pop(arena)) break; // closed: router-side abort
          wait_s += seconds_since(w0);
        }
        if (!produce(*arena)) break;
        full_.try_push(arena); // holds a popped arena: cannot be full
      }
      busy_s = seconds_since(t0) - wait_s;
    } catch (...) {
      error = std::current_exception();
    }
    full_.close();
  }

  /// Router side: the next window in arrival order, or null once the stream
  /// is exhausted.  Time blocked on a threaded producer is charged to
  /// `stall_s`.
  WindowArena* next(double& stall_s) {
    if (!threaded_) return produce(*arenas_[0]) ? arenas_[0].get() : nullptr;
    WindowArena* arena = nullptr;
    if (full_.try_pop(arena)) return arena;
    const auto s0 = PerfClock::now();
    const bool got = full_.pop(arena);
    stall_s += seconds_since(s0);
    if (got) return arena;
    // The producer wrote `error` before closing the ring, and pop()'s
    // acquire of the close makes that write visible here.
    if (error) throw PipelineAborted{};
    return nullptr;
  }

  /// Router side: hand a routed window's arena back for refilling.
  void recycle(WindowArena* arena) {
    if (threaded_) free_ring_.try_push(arena); // cannot be full
  }

  /// Abort/shutdown: unblocks a producer parked on the free ring.
  void close() {
    full_.close();
    free_ring_.close();
  }

  // Outputs of a threaded producer, read after join.
  std::exception_ptr error;
  double busy_s = 0.0;
  double wait_s = 0.0;
  std::vector<obs::TraceEvent> prof; ///< kProfProducerFill per window

private:
  /// Generate the next window into `arena` and flag its cache hits; false
  /// once the stream is exhausted.
  bool produce(WindowArena& arena) {
    if (windowed_.exhausted()) return false;
    const bool profiling = setup_.profiling;
    const double f0 = profiling ? seconds_since(setup_.prof_t0) : 0.0;
    frontier_ = fill_window(windowed_, frontier_, window_, arena.block);
    arena.frontier = frontier_;
    if (cache_ != nullptr) {
      const std::size_t n = arena.block.size();
      const workload::FileId* file_id = arena.block.file.data();
      arena.hit.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& file = catalog_.by_id(file_id[i]);
        arena.hit[i] = cache_->access(file.id, file.size) ? 1 : 0;
      }
    }
    if (profiling) {
      prof.push_back(obs::TraceEvent{f0, windows_,
                                     seconds_since(setup_.prof_t0) - f0, 0.0,
                                     obs::kProducerTrack, obs::Kind::kProfile,
                                     obs::kProfProducerFill});
    }
    ++windows_;
    return true;
  }

  workload::WindowedStream windowed_;
  const workload::FileCatalog& catalog_;
  cache::FileCache* cache_;
  double window_;
  double frontier_ = 0.0;
  std::uint64_t windows_ = 0;
  bool threaded_;
  const FleetSetup& setup_;
  std::vector<std::unique_ptr<WindowArena>> arenas_;
  util::SpscRing<WindowArena*> full_{kWindowArenas};
  util::SpscRing<WindowArena*> free_ring_{kWindowArenas};
};

/// The controller's guess at how long a disk idles before its spin-down
/// policy puts it to sleep: exact for fixed-threshold and never policies,
/// the break-even threshold (the adaptive policies' anchor point) otherwise.
/// Only a prediction heuristic — routing quality, never correctness,
/// depends on it.
double sleep_after_estimate(const ExperimentConfig& config) {
  switch (config.policy.kind) {
    case PolicySpec::Kind::kNever:
      return std::numeric_limits<double>::infinity();
    case PolicySpec::Kind::kFixed:
      return config.policy.fixed_threshold_s;
    default:
      return config.params.break_even_threshold();
  }
}

/// Build the orchestration controller for a run, or null when the
/// scenario has orchestration off.
std::unique_ptr<orch::FleetController> make_controller(
    const ExperimentConfig& config, const FleetSetup& setup,
    obs::TraceBuffer* trace) {
  if (!config.orch.enabled()) return nullptr;
  orch::Config ocfg;
  ocfg.redirect = config.orch.redirect;
  ocfg.offload = config.orch.offload;
  ocfg.budget = config.orch.budget;
  ocfg.log_disks = config.orch.offload ? config.orch.log_disks : 0;
  ocfg.data_disks = config.num_disks - ocfg.log_disks;
  ocfg.replicas = config.replicas;
  ocfg.destage_deadline_s = config.orch.destage_deadline_s;
  ocfg.write_fraction = config.orch.write_fraction;
  ocfg.slo_p99_s = config.orch.slo_p99_s;
  ocfg.horizon_s = setup.horizon;
  ocfg.disk_capacity = config.params.capacity;
  ocfg.mean_request_bytes = config.catalog->mean_request_bytes();
  orch::ServiceModel model;
  model.position_s = config.params.position_time();
  model.transfer_bps = config.params.transfer_bps;
  model.spinup_s = config.params.spinup_s;
  model.sleep_after_s = sleep_after_estimate(config);
  return std::make_unique<orch::FleetController>(ocfg, model, config.mapping,
                                                 setup.extents, trace);
}

/// Append the controller's rewritten submissions to their shards' batches,
/// each with `disk` rewritten to the shard-local index.
void push_submissions(const std::vector<orch::Submission>& subs,
                      std::uint32_t shards, ShardBatch* const* current) {
  for (orch::Submission sub : subs) {
    const std::uint32_t shard = sub.disk % shards;
    sub.disk /= shards;
    current[shard]->subs.push_back(sub);
  }
}

/// Route one generated window: every mapping lookup and orchestration
/// decision for its arrivals, in global arrival order, appended to the
/// shards' current batches (`current[s]` for shard s).  A standalone
/// function rather than a closure over the router's locals: with everything
/// it reads passed explicitly, the loop state stays in registers across the
/// batch appends.  `hit` is the producer's cache verdict per arrival, null
/// when the run has no cache; `spans` is non-null only when a cache is
/// present and span tracing is on.  Cache hits are served from memory with
/// zero latency, never reach a disk, and are recorded into `hits` and
/// `hist`.
void route_window(const workload::RequestBlock& block, const std::uint8_t* hit,
                  const workload::FileCatalog& catalog,
                  const std::uint32_t* mapping,
                  const workload::FileExtent* extents,
                  orch::FleetController* controller, obs::TraceBuffer* spans,
                  std::uint32_t shards, ShardBatch* const* current,
                  std::vector<orch::Submission>& subs, stats::Welford& hits,
                  stats::LinearHistogram& hist) {
  const std::size_t n = block.size();
  const double* arrival = block.arrival.data();
  const std::uint64_t* id = block.id.data();
  const workload::FileId* file_id = block.file.data();
  const std::uint64_t* block_lba = block.lba.data();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& file = catalog.by_id(file_id[i]);
    if (hit != nullptr && hit[i] != 0) {
      if (spans != nullptr) {
        spans->emit(obs::Kind::kSpan, obs::kSpanCacheHit, arrival[i],
                    obs::kDispatcherTrack, id[i], file.size);
      }
      hits.add(0.0);
      hist.add(0.0);
      continue;
    }
    const std::uint32_t disk = mapping[file.id];
    if (spans != nullptr) {
      spans->emit(obs::Kind::kSpan, obs::kSpanCacheMiss, arrival[i],
                  obs::kDispatcherTrack, id[i], disk);
    }
    if (controller != nullptr) {
      // Deadline destages due before this arrival ship first (each at its
      // own deadline time), then the arrival's rewritten submissions — so
      // per-shard batch times stay non-decreasing.
      subs.clear();
      controller->flush_deadlines(arrival[i], subs);
      controller->route(arrival[i], id[i], file, subs, block_lba[i]);
      push_submissions(subs, shards, current);
      continue;
    }
    const auto& extent = extents[file.id];
    const std::uint64_t lba =
        block_lba[i] != workload::kNoLba ? block_lba[i] : extent.lba;
    current[disk % shards]->subs.push_back(orch::Submission{
        arrival[i], id[i], file.size, lba, extent.blocks, disk / shards});
  }
}

std::vector<RunResult> run_pipeline(const ExperimentConfig& config,
                                    const FleetSetup& setup, FleetPerf* perf,
                                    obs::RunTrace* trace) {
  const std::uint32_t shards = setup.shards;
  const double horizon = setup.horizon;

  // One shard: the router replays each window itself instead of handing
  // it to a worker, so the run starts no thread.
  const bool inline_replay = shards == 1;

  // Inline replay drains each window before the next is filled, so one
  // recycled arena suffices.
  const std::size_t arenas = inline_replay ? 1 : kBatchesPerShard;
  std::vector<std::unique_ptr<Shard>> states;
  states.reserve(shards);
  for (std::uint32_t w = 0; w < shards; ++w) {
    states.push_back(std::make_unique<Shard>(config, setup, w, arenas));
  }

  const auto cache = config.cache.make(config.catalog->size());
  const auto stream =
      config.workload.make_stream(*config.catalog, config.seed);

  // The router is the fleet's dispatcher: it performs every routing
  // decision in global arrival order, so the dispatcher-track span events
  // (cache hit/miss, from the producer's flags) are emitted here, in the
  // same order at any shard count.
  obs::TraceBuffer router_trace{setup.sim_mask};
  obs::TraceBuffer* const spans =
      cache != nullptr && router_trace.wants(obs::Kind::kSpan) ? &router_trace
                                                               : nullptr;
  // Orchestration: the controller rewrites the post-cache arrival stream in
  // global arrival order — a deterministic, shard-count-invariant function
  // — emitting its decisions onto the dispatcher track.
  const auto controller = make_controller(config, setup, &router_trace);
  std::vector<orch::Submission> subs;
  std::vector<obs::TraceEvent> router_prof; ///< kProfRouterFill per window

  // Conservative windows: route all arrivals below each frontier, then let
  // every shard advance to it.  Any length is causally safe (no feedback
  // path); this one bounds batch memory to a few thousand submissions per
  // shard at the bench's request rates.
  const double window = std::max(1e-3, horizon / 256.0);
  // The producer gets its own thread only where it takes real work off a
  // router that hands off to workers: a cache to filter or an orchestration
  // controller loading the router.  A cache-less, unorchestrated router only
  // generates and looks up the mapping, and a third thread would contend
  // with the workers for cores.
  const bool threaded_producer =
      !inline_replay && (cache != nullptr || controller != nullptr);
  // Arena size: twice the mean arrivals per window, room for a diurnal
  // peak, so the producer thread does not grow its arenas.
  const auto per_window = static_cast<std::size_t>(std::min(
      65536.0, 2.0 * config.workload.mean_rate() * window + 64.0));
  ArrivalProducer producer{*stream, *config.catalog, cache.get(), window,
                           threaded_producer, per_window, setup};
  std::uint64_t window_idx = 0;

  RunResult root;
  root.power.horizon_s = horizon;
  stats::LinearHistogram root_hist{stats::ResponseSummary::kHistLo,
                                   stats::ResponseSummary::kHistHi,
                                   stats::ResponseSummary::kHistBins};
  std::vector<std::size_t> high_water(shards, 0);
  double router_stall = 0.0;
  double router_wall = 0.0;
  std::exception_ptr router_error;

  {
    std::jthread producer_thread;
    std::vector<std::jthread> workers;
    const auto t0 = PerfClock::now();
    try {
      if (threaded_producer) {
        producer_thread = std::jthread{[&producer] { producer.run(); }};
      }
      if (!inline_replay) {
        workers.reserve(shards);
        for (auto& state : states) {
          workers.emplace_back([s = state.get()] { s->run(); });
        }
      }
      // Pop a drained arena for `shard`, charging blocked time to the
      // router stall counter.  A closed ring means the worker died.
      const auto acquire = [&](std::uint32_t shard) -> ShardBatch* {
        ShardBatch* arena = nullptr;
        auto& ring = states[shard]->free_ring;
        if (!ring.try_pop(arena)) {
          const auto s0 = PerfClock::now();
          if (!ring.pop(arena)) throw PipelineAborted{};
          router_stall += seconds_since(s0);
        }
        return arena;
      };
      const auto publish = [&](std::uint32_t shard, ShardBatch* arena) {
        auto& state = *states[shard];
        if (inline_replay) {
          const auto r0 = PerfClock::now();
          ++state.batches;
          state.replay(arena);
          state.busy_s += seconds_since(r0);
          return;
        }
        state.full.try_push(arena); // holds a popped arena: cannot be full
        high_water[shard] = std::max(high_water[shard], state.full.size());
      };

      std::vector<ShardBatch*> current(shards, nullptr);
      const auto acquire_all = [&] {
        for (std::uint32_t w = 0; w < shards; ++w) current[w] = acquire(w);
      };
      const auto publish_all = [&](double advance_to) {
        for (std::uint32_t w = 0; w < shards; ++w) {
          current[w]->advance_to = advance_to;
          publish(w, current[w]);
          current[w] = nullptr;
        }
      };
      while (WindowArena* arena = producer.next(router_stall)) {
        const double f0 =
            setup.profiling ? seconds_since(setup.prof_t0) : 0.0;
        acquire_all();
        // Whole-window decision batch: every mapping lookup and
        // orchestration decision happens here, in global arrival order,
        // before anything is published.
        const double frontier = arena->frontier;
        root.requests += arena->block.size();
        route_window(arena->block,
                     cache != nullptr ? arena->hit.data() : nullptr,
                     *config.catalog, config.mapping.data(),
                     setup.extents.data(), controller.get(), spans, shards,
                     current.data(), subs, root.hits_response, root_hist);
        producer.recycle(arena);
        if (controller != nullptr) {
          // Destages due inside this window but after its last arrival:
          // flushed at the frontier so the next window's arrivals (all
          // >= frontier) still land after them.
          subs.clear();
          controller->flush_deadlines(frontier, subs);
          push_submissions(subs, shards, current.data());
        }
        publish_all(frontier);
        if (setup.profiling) {
          router_prof.push_back(obs::TraceEvent{
              f0, window_idx, seconds_since(setup.prof_t0) - f0, 0.0,
              obs::kDispatcherTrack, obs::Kind::kProfile,
              obs::kProfRouterFill});
        }
        ++window_idx;
      }
      if (controller != nullptr) {
        // Every remaining buffered write has a deadline <= horizon (the
        // absorb-time cap), so one flush at the horizon drains the log
        // tier inside the measurement window.
        subs.clear();
        controller->flush_deadlines(horizon, subs);
        if (!subs.empty()) {
          acquire_all();
          push_submissions(subs, shards, current.data());
          publish_all(horizon);
        }
      }
      for (std::uint32_t w = 0; w < shards; ++w) {
        ShardBatch* last = acquire(w);
        last->final = true;
        last->advance_to = horizon;
        publish(w, last);
      }
    } catch (...) {
      router_error = std::current_exception();
    }
    router_wall = seconds_since(t0);
    // Normal completion: the producer has already closed its full ring and
    // workers exit after their final batch (pushed before the close, so it
    // is still delivered).  Abort: this wakes every blocked thread, which
    // returns without finalizing.
    producer.close();
    for (auto& state : states) {
      state->full.close();
      state->free_ring.close();
    }
  } // workers and the producer join here

  for (auto& state : states) {
    if (state->error) std::rethrow_exception(state->error);
  }
  if (producer.error) std::rethrow_exception(producer.error);
  if (router_error) std::rethrow_exception(router_error);

  if (cache != nullptr) root.cache = cache->stats();
  root.recompute_from_per_disk(root_hist);

  if (trace != nullptr) {
    trace->horizon_s = horizon;
    trace->shards = shards;
    trace->workers = shards;
    if (setup.sim_mask != 0) {
      std::vector<obs::TraceBuffer*> buffers;
      buffers.reserve(1 + shards);
      buffers.push_back(&router_trace);
      for (const auto& state : states) {
        buffers.push_back(state->trace_buffer());
      }
      obs::append_canonical(trace->events, buffers);
    }
    trace->profile.insert(trace->profile.end(), router_prof.begin(),
                          router_prof.end());
    trace->profile.insert(trace->profile.end(), producer.prof.begin(),
                          producer.prof.end());
    for (const auto& state : states) {
      trace->profile.insert(trace->profile.end(), state->prof.begin(),
                            state->prof.end());
    }
    sort_profile(trace->profile);
  }

  std::vector<RunResult> partials;
  partials.reserve(1 + shards);
  partials.push_back(std::move(root));
  for (auto& state : states) partials.push_back(std::move(state->partial));

  if (perf != nullptr) {
    perf->workers = shards;
    // Inline replay ran on the router thread: charge it to the worker.
    const double replayed = inline_replay ? states[0]->busy_s : 0.0;
    perf->router_busy_s =
        std::max(0.0, router_wall - router_stall - replayed);
    perf->router_stall_s = router_stall;
    perf->producer_busy_s = producer.busy_s;
    perf->producer_wait_s = producer.wait_s;
    perf->per_shard.resize(shards);
    perf->worker_busy_s.assign(shards, 0.0);
    perf->worker_wait_s.assign(shards, 0.0);
    for (std::uint32_t w = 0; w < shards; ++w) {
      perf->per_shard[w].shard = w;
      perf->per_shard[w].submissions = states[w]->submissions;
      perf->per_shard[w].batches = states[w]->batches;
      perf->per_shard[w].events = partials[w + 1].events;
      perf->per_shard[w].ring_high_water = high_water[w];
      perf->worker_busy_s[w] = states[w]->busy_s;
      perf->worker_wait_s[w] = states[w]->wait_s;
    }
  }
  return partials;
}

} // namespace

std::uint32_t effective_shards(std::uint32_t requested,
                               std::uint32_t num_disks) {
  std::uint32_t shards = requested;
  if (requested == 0) {
    shards = std::thread::hardware_concurrency();
    if (shards == 0) shards = 1;
    // Oversharding floor: auto never lands a shard below
    // kAutoMinDisksPerShard disks — at that granularity the pipeline
    // overhead outweighs the parallelism (the 4096-disk × 8-shard
    // regression in BENCH_fleet.json's PR-7 snapshot).
    shards = std::min(
        shards,
        std::max<std::uint32_t>(1, num_disks / kAutoMinDisksPerShard));
  }
  return std::max<std::uint32_t>(1, std::min(shards, num_disks));
}

std::vector<RunResult> run_fleet_partials(const ExperimentConfig& config,
                                          std::uint32_t shards,
                                          FleetPerf* perf,
                                          obs::RunTrace* trace) {
  if (config.catalog == nullptr) {
    throw std::invalid_argument{"ExperimentConfig: catalog is required"};
  }
  if (config.mapping.size() < config.catalog->size()) {
    throw std::invalid_argument{"run_fleet: mapping smaller than catalog"};
  }
  for (const auto d : config.mapping) {
    if (d >= config.num_disks) {
      throw std::invalid_argument{
          "run_fleet: mapping references disk >= num_disks"};
    }
  }
  shards = std::max<std::uint32_t>(
      1, std::min(shards, std::max<std::uint32_t>(1, config.num_disks)));

  if (trace != nullptr && !config.obs.enabled()) trace = nullptr;
  const FleetSetup setup{config, shards, trace};
  if (perf != nullptr) {
    *perf = FleetPerf{};
    perf->shards = shards;
  }
  return run_pipeline(config, setup, perf, trace);
}

RunResult run_fleet(const ExperimentConfig& config, std::uint32_t shards,
                    FleetPerf* perf, obs::RunTrace* trace) {
  auto partials = run_fleet_partials(config, shards, perf, trace);
  RunResult result = std::move(partials.front());
  for (std::size_t i = 1; i < partials.size(); ++i) result.merge(partials[i]);
  return result;
}

} // namespace spindown::sys
