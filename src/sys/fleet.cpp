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

/// Pre-routed submissions for one shard, one synchronization window.
/// Structure-of-arrays like workload::RequestBlock: the worker's replay
/// loop touches time[] on every iteration but the payload fields only at
/// submit time.  Instances live in per-shard arenas and are recycled
/// through the free ring — reset() keeps vector capacity, so the steady
/// state allocates nothing.
struct ShardBatch {
  std::vector<double> time;
  std::vector<std::uint64_t> request_id;
  std::vector<util::Bytes> bytes;
  std::vector<std::uint64_t> lba;
  std::vector<std::uint64_t> blocks;
  std::vector<std::uint32_t> local_disk;
  std::vector<std::uint8_t> background; ///< orchestration destage I/O
  /// The routed frontier: the worker may advance its clock here after
  /// replaying the batch (the router has routed every arrival below it).
  double advance_to = 0.0;
  bool final = false;

  std::size_t size() const { return time.size(); }
  void push(double t, std::uint64_t id, util::Bytes b, std::uint64_t l,
            std::uint64_t nblocks, std::uint32_t disk, bool bg = false) {
    time.push_back(t);
    request_id.push_back(id);
    bytes.push_back(b);
    lba.push_back(l);
    blocks.push_back(nblocks);
    local_disk.push_back(disk);
    background.push_back(bg ? 1 : 0);
  }
  void reset() {
    time.clear();
    request_id.clear();
    bytes.clear();
    lba.clear();
    blocks.clear();
    local_disk.clear();
    background.clear();
    advance_to = 0.0;
    final = false;
  }
};

/// One shard's private calendar: the disks with id % shards == shard
/// (local index l holds global disk shard + l * shards), per-disk response
/// accumulators, and the horizon-snapshot rule.
/// Heap-allocated and never moved: the completion callbacks capture member
/// addresses.
class ShardSim {
public:
  /// `obs_mask` non-zero enables tracing into a shard-private buffer
  /// (single-writer: exactly one thread ever drives this calendar).  The
  /// sampler is started after every disk exists, so its calendar ticks are
  /// inserted after all idle timers — the same insertion order in every
  /// shard, hence the same measure-zero tie resolution.
  ShardSim(const ExperimentConfig& config, double horizon,
           const std::vector<std::uint32_t>& disk_ids,
           const std::vector<util::Rng>& rngs,
           const std::vector<const PolicySpec*>& policies,
           std::uint32_t obs_mask = 0, double metrics_interval_s = 0.0)
      : horizon_(horizon) {
    if (obs_mask != 0) {
      trace_ = std::make_unique<obs::TraceBuffer>(obs_mask);
    }
    disks_.reserve(disk_ids.size());
    responses_.resize(disk_ids.size());
    for (std::size_t l = 0; l < disk_ids.size(); ++l) {
      disks_.push_back(std::make_unique<disk::Disk>(
          sim_, disk_ids[l], config.params, policies[l]->make(config.params),
          rngs[l], config.scheduler.make()));
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
          sim_, metrics_interval_s, horizon, trace_.get());
      for (const auto& d : disks_) sampler_->add_disk(d.get());
      sampler_->start();
    }
  }
  ShardSim(const ShardSim&) = delete;
  ShardSim& operator=(const ShardSim&) = delete;

  /// Fixed tie rule: every pending disk event at t <= arrival runs before
  /// a submission at t — identical at any shard count.  The horizon
  /// snapshot (freezing the power/queue counters) is taken before the
  /// local clock first passes the horizon.
  void advance(double t) {
    if (snapshot_.empty() && t >= horizon_) {
      sim_.run_until(horizon_);
      snapshot_.reserve(disks_.size());
      for (const auto& d : disks_) snapshot_.push_back(d->metrics(horizon_));
    }
    sim_.run_until(t);
  }

  void submit(std::uint32_t local_disk, std::uint64_t request_id,
              util::Bytes bytes, std::uint64_t lba, std::uint64_t blocks,
              bool background = false) {
    disks_[local_disk]->submit(request_id, bytes, lba, blocks, background);
    ++submissions_;
  }

  double now() const { return sim_.now(); }
  std::uint64_t submissions() const { return submissions_; }
  obs::TraceBuffer* trace_buffer() { return trace_.get(); }

  /// Drain: in-flight services run to completion past the horizon and
  /// still record their response times.
  RunResult finalize() {
    advance(horizon_);
    sim_.run();
    for (std::size_t l = 0; l < snapshot_.size(); ++l) {
      snapshot_[l].response = responses_[l];
    }
    RunResult partial;
    partial.power.horizon_s = horizon_;
    // Sampler ticks are observation overhead, not simulated physics:
    // subtract them so `events` matches the untraced run bit-for-bit.
    partial.events =
        sim_.executed() - (sampler_ != nullptr ? sampler_->ticks() : 0);
    partial.per_disk = std::move(snapshot_);
    partial.recompute_from_per_disk(hist_);
    return partial;
  }

private:
  des::Simulation sim_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  std::vector<stats::Welford> responses_;
  stats::LinearHistogram hist_{stats::ResponseSummary::kHistLo,
                               stats::ResponseSummary::kHistHi,
                               stats::ResponseSummary::kHistBins};
  std::vector<disk::DiskMetrics> snapshot_;
  double horizon_ = 0.0;
  std::uint64_t submissions_ = 0;
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

  std::unique_ptr<ShardSim> make_sim(const ExperimentConfig& config,
                                     std::uint32_t shard) const {
    return std::make_unique<ShardSim>(config, horizon, disk_ids[shard],
                                      rngs[shard], policies[shard], sim_mask,
                                      config.obs.metrics_interval_s);
  }
};

// ---------------------------------------------------------------------------
// The pipeline: a router on the calling thread, lock-free per-shard rings,
// recycled batch arenas.
// ---------------------------------------------------------------------------

/// Raised inside the router loop when a worker closed its rings (the
/// worker's own exception is the root cause and is rethrown after join).
struct PipelineAborted {};

/// One shard of the pipeline: a private calendar, the full ring (router ->
/// worker, carries filled batches) and the free ring (worker -> router,
/// recycles drained arenas).  The arenas double-buffer generically: the
/// router fills window N+1 (or several) while the worker drains window N,
/// and a full free ring is what parks an idle router.
struct RoutedShard {
  std::unique_ptr<ShardSim> sim;
  util::SpscRing<ShardBatch*> full{kBatchesPerShard};
  util::SpscRing<ShardBatch*> free_ring{kBatchesPerShard};
  std::vector<std::unique_ptr<ShardBatch>> arenas;
  std::uint32_t shard = 0;
  const FleetSetup* setup = nullptr; ///< profiling switch and time origin
  // Outputs, read after join.
  RunResult partial;
  std::exception_ptr error;
  std::uint64_t batches = 0;
  double busy_s = 0.0;
  double wait_s = 0.0;
  std::vector<obs::TraceEvent> prof; ///< kProfRingWait / kProfWorkerReplay

  /// `count` <= kBatchesPerShard arenas: the router can run that many
  /// windows ahead of the worker.
  void init(std::size_t count) {
    arenas.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      arenas.push_back(std::make_unique<ShardBatch>());
      ShardBatch* arena = arenas.back().get();
      free_ring.try_push(arena); // capacity >= arena count: cannot fail
    }
  }

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
    const bool profiling = setup->profiling;
    const double r0 = profiling ? seconds_since(setup->prof_t0) : 0.0;
    for (std::size_t i = 0; i < batch->size(); ++i) {
      sim->advance(batch->time[i]);
      sim->submit(batch->local_disk[i], batch->request_id[i],
                  batch->bytes[i], batch->lba[i], batch->blocks[i],
                  batch->background[i] != 0);
    }
    const bool final = batch->final;
    if (!final && batch->advance_to > sim->now()) {
      sim->advance(batch->advance_to);
    }
    batch->reset();
    free_ring.try_push(batch); // capacity >= arena count: cannot fail
    if (profiling) {
      prof.push_back(obs::TraceEvent{r0, batches,
                                     seconds_since(setup->prof_t0) - r0, 0.0,
                                     shard, obs::Kind::kProfile,
                                     obs::kProfWorkerReplay});
    }
    if (final) partial = sim->finalize();
    return final;
  }

private:
  void consume() {
    const auto t0 = PerfClock::now();
    const bool profiling = setup->profiling;
    const auto prof_t0 = setup->prof_t0;
    for (;;) {
      ShardBatch* batch = nullptr;
      const auto w0 = PerfClock::now();
      const double wait0 = profiling ? seconds_since(prof_t0) : 0.0;
      if (!full.pop(batch)) return; // rings closed: router-side abort
      wait_s += seconds_since(w0);
      ++batches;
      if (profiling) {
        prof.push_back(obs::TraceEvent{
            wait0, batches, seconds_since(prof_t0) - wait0, 0.0, shard,
            obs::Kind::kProfile, obs::kProfRingWait});
      }
      if (replay(batch)) break;
    }
    busy_s = seconds_since(t0) - wait_s;
  }
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

/// Append the controller's rewritten submissions to their shards' batches.
void push_submissions(const std::vector<orch::Submission>& subs,
                      std::uint32_t shards, ShardBatch* const* current) {
  for (const auto& sub : subs) {
    current[sub.disk % shards]->push(sub.t, sub.request_id, sub.bytes, sub.lba,
                                     sub.blocks, sub.disk / shards,
                                     sub.background);
  }
}

/// Route one generation window: every cache access, mapping lookup and
/// orchestration decision for `block`, in global arrival order, appended to
/// the shards' current batches (`current[s]` for shard s).  A standalone
/// function rather than a closure over the router's locals: with everything
/// it reads passed explicitly, the loop state stays in registers across the
/// batch appends.  `spans` is non-null only when a cache is present and
/// span tracing is on; cache hits are served from memory with zero latency,
/// never reach a disk, and are recorded into `hits` and `hist`.
void route_window(const workload::RequestBlock& block,
                  const workload::FileCatalog& catalog,
                  const std::uint32_t* mapping,
                  const workload::FileExtent* extents, cache::FileCache* cache,
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
    if (cache != nullptr && cache->access(file.id, file.size)) {
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
      controller->route(arrival[i], id[i], file, subs);
      push_submissions(subs, shards, current);
      continue;
    }
    const auto& extent = extents[file.id];
    const std::uint64_t lba =
        block_lba[i] != workload::kNoLba ? block_lba[i] : extent.lba;
    current[disk % shards]->push(arrival[i], id[i], file.size, lba,
                                 extent.blocks, disk / shards);
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

  std::vector<std::unique_ptr<RoutedShard>> states;
  states.reserve(shards);
  for (std::uint32_t w = 0; w < shards; ++w) {
    auto state = std::make_unique<RoutedShard>();
    state->sim = setup.make_sim(config, w);
    state->shard = w;
    state->setup = &setup;
    // Inline replay drains each window before the next is filled, so one
    // recycled arena suffices.
    state->init(inline_replay ? 1 : kBatchesPerShard);
    states.push_back(std::move(state));
  }

  const auto cache = config.cache.make();
  const auto stream =
      config.workload.make_stream(*config.catalog, config.seed);

  // The router is the fleet's dispatcher: it owns the cache and performs
  // every routing decision in global arrival order, so the dispatcher-track
  // span events (cache hit/miss) are emitted here, in the same order at any
  // shard count.
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
    std::vector<std::jthread> workers;
    if (!inline_replay) {
      workers.reserve(shards);
      for (auto& state : states) {
        workers.emplace_back([s = state.get()] { s->run(); });
      }
    }
    const auto t0 = PerfClock::now();
    try {
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

      // Conservative windows: route all arrivals below each frontier, then
      // let every shard advance to it.  Any length is causally safe (no
      // feedback path); this one bounds batch memory to a few thousand
      // submissions per shard at the bench's request rates.
      const double window = std::max(1e-3, horizon / 256.0);
      workload::WindowedStream windowed{*stream};
      workload::RequestBlock block;
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
      double frontier = 0.0;
      while (!windowed.exhausted()) {
        const double f0 =
            setup.profiling ? seconds_since(setup.prof_t0) : 0.0;
        frontier = fill_window(windowed, frontier, window, block);
        acquire_all();
        // Whole-window decision batch: every cache access and mapping
        // lookup happens here, in global arrival order, before anything is
        // published.
        root.requests += block.size();
        route_window(block, *config.catalog, config.mapping.data(),
                     setup.extents.data(), cache.get(), controller.get(),
                     spans, shards, current.data(), subs, root.hits_response,
                     root_hist);
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
    // Normal completion: workers exit after their final batch (pushed
    // before the close, so it is still delivered).  Abort: this wakes
    // every blocked worker, which returns without finalizing.
    for (auto& state : states) {
      state->full.close();
      state->free_ring.close();
    }
  } // workers join here

  for (auto& state : states) {
    if (state->error) std::rethrow_exception(state->error);
  }
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
        buffers.push_back(state->sim->trace_buffer());
      }
      obs::append_canonical(trace->events, buffers);
    }
    trace->profile.insert(trace->profile.end(), router_prof.begin(),
                          router_prof.end());
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
    perf->per_shard.resize(shards);
    perf->worker_busy_s.assign(shards, 0.0);
    perf->worker_wait_s.assign(shards, 0.0);
    for (std::uint32_t w = 0; w < shards; ++w) {
      perf->per_shard[w].shard = w;
      perf->per_shard[w].submissions = states[w]->sim->submissions();
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
