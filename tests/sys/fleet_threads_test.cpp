// fleet_threads_test.cpp — the fleet pipeline's thread structure: the
// router runs on the calling thread, so a one-shard run starts no thread
// and a k-shard run starts exactly k, one worker per shard.
//
// The file interposes pthread_create with a counting wrapper that forwards
// to libc's, the way tests/des/alloc_count_test.cpp counts operator new.
// The wrapper is binary-wide, which is harmless for the other suites in
// this binary: they only gain a relaxed atomic increment per thread start.
// ASan and TSan runtimes own pthread_create themselves (a statically
// linked runtime would be bypassed by the wrapper), so sanitized builds
// compile the wrapper out and skip the check.
#include <dlfcn.h>
#include <pthread.h>

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sys/fleet.h"
#include "util/units.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPINDOWN_SANITIZED_THREADS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPINDOWN_SANITIZED_THREADS 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_thread_starts{0};
}

#ifndef SPINDOWN_SANITIZED_THREADS
extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static const auto next =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  g_thread_starts.fetch_add(1, std::memory_order_relaxed);
  return next(thread, attr, start, arg);
}
#endif

namespace spindown::sys {
namespace {

std::uint64_t threads_started_by(const ExperimentConfig& cfg,
                                 std::uint32_t shards) {
  const auto before = g_thread_starts.load();
  run_fleet(cfg, shards);
  return g_thread_starts.load() - before;
}

/// A four-disk farm: eight equal files, two per disk.
struct SmallFarm {
  workload::FileCatalog cat;
  ExperimentConfig cfg;

  SmallFarm() : cat{files()} {
    cfg.catalog = &cat;
    cfg.mapping = {0, 1, 2, 3, 0, 1, 2, 3};
    cfg.num_disks = 4;
    cfg.workload = WorkloadSpec::poisson(0.5, 100.0);
  }

  static std::vector<workload::FileInfo> files() {
    std::vector<workload::FileInfo> out(8);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].id = static_cast<workload::FileId>(i);
      out[i].size = util::mb(40.0);
      out[i].popularity = 1.0 / static_cast<double>(out.size());
    }
    return out;
  }
};

TEST(FleetThreads, OneShardRunStartsNoThread) {
#ifdef SPINDOWN_SANITIZED_THREADS
  GTEST_SKIP() << "the sanitizer runtime owns pthread_create";
#endif
  SmallFarm farm;
  auto& cfg = farm.cfg;

  // The counter does see thread starts: two shards run a worker thread
  // each.
  ASSERT_GT(threads_started_by(cfg, 2), 0u);

  EXPECT_EQ(threads_started_by(cfg, 1), 0u);
  cfg.cache = CacheSpec::lru(util::mb(100.0));
  EXPECT_EQ(threads_started_by(cfg, 1), 0u);
  const auto before = g_thread_starts.load();
  run_experiment(cfg); // shards = 1
  EXPECT_EQ(g_thread_starts.load() - before, 0u);
}

TEST(FleetThreads, KShardRunStartsKWorkers) {
#ifdef SPINDOWN_SANITIZED_THREADS
  GTEST_SKIP() << "the sanitizer runtime owns pthread_create";
#endif
  SmallFarm farm;
  auto& cfg = farm.cfg;

  // The router is the calling thread: three shards, three workers.
  EXPECT_EQ(threads_started_by(cfg, 3), 3u);
  cfg.cache = CacheSpec::lru(util::mb(100.0));
  EXPECT_EQ(threads_started_by(cfg, 3), 3u);
}

} // namespace
} // namespace spindown::sys
