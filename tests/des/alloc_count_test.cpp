// alloc_count_test.cpp — proves the steady-state event loop is allocation-
// free.
//
// The file replaces the global operator new/delete with counting versions
// (they still allocate through std::malloc, so ASan keeps seeing every
// allocation).  The override is binary-wide, which is harmless for the other
// suites in this binary: they only gain a relaxed atomic increment per
// allocation.
//
// Methodology: warm the kernel up past its slab/heap growth phase, snapshot
// the counter, run a large number of schedule -> fire and schedule -> cancel
// cycles, and require the counter delta to be exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cache/lru.h"
#include "des/simulation.h"
#include "disk/disk.h"
#include "disk/io_scheduler.h"
#include "disk/spin_policy.h"
#include "obs/trace.h"
#include "orch/offload.h"
#include "sys/scenario.h"
#include "util/rng.h"
#include "util/units.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spindown::des {
namespace {

std::uint64_t allocation_count() {
  return g_news.load(std::memory_order_relaxed);
}

TEST(AllocCount, SteadyStateScheduleFireCycleIsAllocationFree) {
  Simulation sim;
  struct Chain {
    Simulation& sim;
    std::uint64_t remaining;
    void operator()() {
      if (remaining-- > 0) {
        sim.schedule_in(1.0, [this] { (*this)(); });
      }
    }
  };
  // Warm-up: grows the slab, the calendar heap, and any lazy allocations.
  Chain warm{sim, 1000};
  warm();
  sim.run();

  Chain chain{sim, 50000};
  const std::uint64_t before = allocation_count();
  chain();
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(sim.executed(), 51000u);
}

TEST(AllocCount, SteadyStateScheduleCancelCycleIsAllocationFree) {
  Simulation sim;
  // Warm-up: one arm/disarm cycle plus a clock-advancing event.
  for (int i = 0; i < 100; ++i) {
    auto h = sim.schedule_in(10.0, [] {});
    sim.cancel(h);
    sim.schedule_in(1.0, [] {});
    sim.run_until(sim.now() + 1.0);
  }
  sim.run();

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 50000; ++i) {
    auto h = sim.schedule_in(10.0, [] {});
    sim.cancel(h);
    sim.schedule_in(1.0, [] {});
    sim.run_until(sim.now() + 1.0);
  }
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
}

// The completion chain through the disk: submit -> schedule the job's
// completion (positioning ends lazily) -> callback -> resubmit.  With the
// InlineFunction callbacks and the schedulers' grow-only storage the whole
// cycle must be allocation-free once warm — the refactored request path
// keeps PR 2's zero-alloc property end to end.
void run_disk_cycle_test(std::unique_ptr<spindown::disk::IoScheduler> sched) {
  using spindown::disk::Completion;
  using spindown::disk::Disk;
  Simulation sim;
  Disk disk{sim, 0, spindown::disk::DiskParams::st3500630as(),
            spindown::disk::make_never_policy(), spindown::util::Rng{1},
            std::move(sched)};

  struct Chain {
    Simulation& sim;
    Disk& disk;
    std::uint64_t remaining;
    std::uint64_t measure_at;
    std::uint64_t before = 0;
    std::uint64_t lba = 0;
    void submit_next() {
      lba = (lba + 4096) % 1'000'000;
      disk.submit(remaining, 100 * spindown::util::kBlockBytes, lba, 100);
    }
    void operator()(const Completion&) {
      // Snapshot after the warm-up portion of one continuous chain (the
      // disk never goes idle in between, so no lazy growth straddles the
      // measured region).
      if (remaining == measure_at) before = allocation_count();
      if (remaining-- > 0) submit_next();
    }
  };
  Chain chain{sim, disk, 20'000, /*measure_at=*/18'000};
  disk.set_completion_callback([&chain](const Completion& c) { chain(c); });
  sim.schedule_at(0.0, [&chain] { chain.submit_next(); });
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - chain.before, 0u);
  EXPECT_EQ(disk.metrics(sim.now()).served, 20'001u);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeFcfs) {
  run_disk_cycle_test(spindown::disk::make_fcfs_scheduler());
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeSstf) {
  run_disk_cycle_test(spindown::disk::make_sstf_scheduler());
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeBatch) {
  run_disk_cycle_test(spindown::disk::make_batch_scheduler());
}

// The same disk cycle with observability wired but OFF: a Disk holding a
// null TraceBuffer pointer (the obs=off path is a branch on that null) must
// stay exactly as allocation-free as an untraced disk.
TEST(AllocCount, DiskCycleWithObsOffIsAllocationFree) {
  using spindown::disk::Completion;
  using spindown::disk::Disk;
  Simulation sim;
  Disk disk{sim, 0, spindown::disk::DiskParams::st3500630as(),
            spindown::disk::make_never_policy(), spindown::util::Rng{1},
            spindown::disk::make_fcfs_scheduler()};
  disk.set_trace(nullptr); // obs=off: explicit null sink

  struct Chain {
    Simulation& sim;
    Disk& disk;
    std::uint64_t remaining;
    std::uint64_t measure_at;
    std::uint64_t before = 0;
    std::uint64_t lba = 0;
    void submit_next() {
      lba = (lba + 4096) % 1'000'000;
      disk.submit(remaining, 100 * spindown::util::kBlockBytes, lba, 100);
    }
    void operator()(const Completion&) {
      if (remaining == measure_at) before = allocation_count();
      if (remaining-- > 0) submit_next();
    }
  };
  Chain chain{sim, disk, 20'000, /*measure_at=*/18'000};
  disk.set_completion_callback([&chain](const Completion& c) { chain(c); });
  sim.schedule_at(0.0, [&chain] { chain.submit_next(); });
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - chain.before, 0u);
}

// Tracing into a pre-reserved buffer: the emit path is a bounds-checked
// push_back, so once the buffer holds enough capacity the traced steady
// state allocates nothing either.
TEST(AllocCount, DiskCycleTracingIntoReservedBufferIsAllocationFree) {
  using spindown::disk::Completion;
  using spindown::disk::Disk;
  Simulation sim;
  spindown::obs::TraceBuffer trace{
      spindown::obs::kind_bit(spindown::obs::Kind::kSpan) |
      spindown::obs::kind_bit(spindown::obs::Kind::kPower)};
  // 5 span edges plus up to 3 power transitions per request.
  trace.reserve(10 * 21'000);
  Disk disk{sim, 0, spindown::disk::DiskParams::st3500630as(),
            spindown::disk::make_never_policy(), spindown::util::Rng{1},
            spindown::disk::make_fcfs_scheduler()};
  disk.set_trace(&trace);

  struct Chain {
    Simulation& sim;
    Disk& disk;
    std::uint64_t remaining;
    std::uint64_t measure_at;
    std::uint64_t before = 0;
    std::uint64_t lba = 0;
    void submit_next() {
      lba = (lba + 4096) % 1'000'000;
      disk.submit(remaining, 100 * spindown::util::kBlockBytes, lba, 100);
    }
    void operator()(const Completion&) {
      if (remaining == measure_at) before = allocation_count();
      if (remaining-- > 0) submit_next();
    }
  };
  Chain chain{sim, disk, 20'000, /*measure_at=*/18'000};
  disk.set_completion_callback([&chain](const Completion& c) { chain(c); });
  sim.schedule_at(0.0, [&chain] { chain.submit_next(); });
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - chain.before, 0u);
  EXPECT_GT(trace.size(), 5u * 20'000u); // the events really were recorded
}

// The router's front cache: once the node pool has grown to the largest
// resident set, a miss-heavy stream (evict, recycle a node, link it) and
// the hits in between neither hash nor allocate.
void run_cache_cycle_test(spindown::cache::FileCache& cache) {
  spindown::util::Rng rng{5};
  const auto access = [&] {
    const auto id = static_cast<spindown::workload::FileId>(
        rng.uniform_int(0, 49'999));
    cache.access(id, rng.uniform_int(1, 1000));
  };
  for (int i = 0; i < 100'000; ++i) access(); // warm-up
  const auto before_stats = cache.stats();
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 100'000; ++i) access();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
  // Miss-heavy: ~200 resident of 50k ids.
  EXPECT_GT(cache.stats().misses - before_stats.misses, 90'000u);
}

TEST(AllocCount, LruCacheMissHeavyStreamIsAllocationFree) {
  spindown::cache::LruCache cache{100'000, /*files=*/50'000};
  run_cache_cycle_test(cache);
}

TEST(AllocCount, FifoCacheMissHeavyStreamIsAllocationFree) {
  spindown::cache::FifoCache cache{100'000, /*files=*/50'000};
  run_cache_cycle_test(cache);
}

// Write off-load's absorb -> log_copy -> drain_due cycle with a handful of
// live writes: the settled prefix is dropped in place, so the pending queue
// and the per-disk debt lists stop growing and the loop stops allocating.
TEST(AllocCount, OffloadAbsorbDrainCycleIsAllocationFree) {
  using spindown::orch::PendingWrite;
  using spindown::orch::WriteOffload;
  constexpr std::uint32_t kDataDisks = 16;
  WriteOffload off{kDataDisks, /*log_disks=*/4, spindown::util::gb(1.0),
                   /*deadline_s=*/8.0, /*horizon_s=*/1e9,
                   /*files=*/1000};
  std::vector<PendingWrite> out;
  out.reserve(64);
  std::uint64_t copies = 0;
  const auto cycle = [&](std::uint64_t i) {
    const double t = static_cast<double>(i);
    const auto file = static_cast<spindown::workload::FileId>(i % 1000);
    (void)off.absorb(kDataDisks + static_cast<std::uint32_t>(i % 4), t, i,
                     file, spindown::util::mb(1.0), 2, i,
                     static_cast<std::uint32_t>((i * 7) % kDataDisks));
    copies += off.log_copy(file).has_value() ? 1 : 0;
    out.clear();
    off.drain_due(t, out);
    EXPECT_LE(off.live(), 8u);
  };
  std::uint64_t i = 0;
  for (; i < 1000; ++i) cycle(i); // warm-up
  const std::uint64_t before = allocation_count();
  for (; i < 101'000; ++i) cycle(i);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(copies, i);
  EXPECT_EQ(off.buffered(), i);
}

// End to end: a cached, replicated, orchestrated run.  Setup — catalog,
// placement, index sizing, pool growth, thread starts — costs the same at
// both horizons, so the difference between a run of 2H and a run of H is
// the steady-state cost of H worth of routed requests.  The counter is
// process-wide, so at k shards it also sees the producer's window arenas
// and the workers' batch arenas, which must recycle rather than grow.
double orchestrated_cached_allocs_per_request(int shards) {
  const auto run = [shards](int horizon_s) {
    const auto spec = spindown::sys::ScenarioSpec::parse(
        "catalog=table1(4000,5) placement=pack load=0.3 policy=ewma "
        "cache=lru:16g replicas=2 "
        "orch=redirect+offload:4+writes:0.1+budget:p99:30 "
        "workload=poisson(4," + std::to_string(horizon_s) + ") "
        "shards=" + std::to_string(shards) + " seed=1");
    const std::uint64_t before = allocation_count();
    const auto result = spindown::sys::run_scenario(spec);
    const std::uint64_t allocs = allocation_count() - before;
    // The run really misses the cache and destages off-loaded writes.
    std::uint64_t destaged = 0;
    for (const auto& m : result.per_disk) destaged += m.destage_served;
    EXPECT_GT(result.cache.misses, result.requests / 2);
    EXPECT_GT(destaged, 100u);
    return std::pair{allocs, result.requests};
  };
  const auto [allocs_h, requests_h] = run(4000);
  const auto [allocs_2h, requests_2h] = run(8000);
  EXPECT_GT(requests_2h, requests_h + 10'000);
  const double per_request =
      static_cast<double>(allocs_2h - allocs_h) /
      static_cast<double>(requests_2h - requests_h);
  std::printf("steady-state allocations per request at %d shard(s): %.4f\n",
              shards, per_request);
  return per_request;
}

TEST(AllocCount, OrchestratedCachedRunAllocatesAlmostNothingPerRequest) {
  // The inline (one-shard) pipeline.
  EXPECT_LE(orchestrated_cached_allocs_per_request(1), 0.05);
}

TEST(AllocCount, ThreeShardOrchestratedCachedRunAllocatesAlmostNothing) {
  // Three workers plus the producer thread.  Each shard batch is one
  // vector of submission records, so a window grows at most one vector per
  // shard; a batch split into per-field vectors read about 0.02 here.
  EXPECT_LE(orchestrated_cached_allocs_per_request(3), 0.012);
}

TEST(AllocCount, OversizedCaptureDoesAllocate) {
  // Sanity check that the counter actually observes the heap fallback path.
  Simulation sim;
  struct Big {
    char blob[128];
  };
  Big big{};
  const std::uint64_t before = allocation_count();
  sim.schedule_in(1.0, [big] { (void)big; });
  const std::uint64_t after = allocation_count();
  EXPECT_GE(after - before, 1u);
  sim.run();
}

} // namespace
} // namespace spindown::des
