// The file-dispatch stage (§4: "the file dispatcher forwards [each request]
// to the corresponding disk based on the file-to-disk mapping table"),
// checked end to end through run_experiment: routing by the mapping,
// mapping validation, layout LBA stamping and its explicit trace override,
// and front-cache hits that never reach a disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "sys/experiment.h"
#include "util/units.h"
#include "workload/trace.h"

namespace spindown::sys {
namespace {

class DispatcherFixture : public ::testing::Test {
protected:
  DispatcherFixture() {
    std::vector<workload::FileInfo> files{
        {0, util::mb(72.0), 0.5},
        {1, util::mb(144.0), 0.3},
        {2, util::mb(36.0), 0.2},
    };
    catalog_ = workload::FileCatalog{files};
    params_ = disk::DiskParams::st3500630as();
  }

  /// Replay `trace` on `mapping` over never-sleeping disks.
  ExperimentConfig config(const workload::Trace& trace,
                          std::vector<std::uint32_t> mapping,
                          std::uint32_t num_disks = 2) const {
    ExperimentConfig cfg;
    cfg.catalog = &catalog_;
    cfg.mapping = std::move(mapping);
    cfg.num_disks = num_disks;
    cfg.params = params_;
    cfg.policy = PolicySpec::never();
    cfg.workload = WorkloadSpec::replay(trace);
    return cfg;
  }

  workload::Trace trace(std::vector<workload::TraceRecord> records) const {
    return workload::Trace{catalog_, std::move(records)};
  }

  /// Request ids in the order their completions were delivered.
  static std::vector<std::uint64_t> completion_order(
      const ExperimentConfig& cfg) {
    auto traced = cfg;
    traced.obs.spans = true;
    obs::RunTrace out;
    run_experiment(traced, &out);
    std::vector<const obs::TraceEvent*> done;
    for (const auto& e : out.events) {
      if (e.kind == obs::Kind::kSpan && e.code == obs::kSpanComplete) {
        done.push_back(&e);
      }
    }
    std::stable_sort(done.begin(), done.end(),
                     [](const auto* a, const auto* b) { return a->t < b->t; });
    std::vector<std::uint64_t> ids;
    for (const auto* e : done) ids.push_back(e->id);
    return ids;
  }

  workload::FileCatalog catalog_;
  disk::DiskParams params_;
};

TEST_F(DispatcherFixture, RoutesByMappingTable) {
  const auto t = trace({{0.0, 0}, {0.0, 1}, {0.0, 2}});
  const auto r = run_experiment(config(t, {0, 1, 0}));
  EXPECT_EQ(r.requests, 3u);
  ASSERT_EQ(r.per_disk.size(), 2u);
  // Files 0 and 2 serialized on disk 0; file 1 in parallel on disk 1.
  EXPECT_EQ(r.per_disk[0].response.count(), 2u);
  EXPECT_EQ(r.per_disk[1].response.count(), 1u);
  EXPECT_EQ(r.response.count(), 3u);
}

TEST_F(DispatcherFixture, ValidatesMapping) {
  const auto t = trace({{0.0, 0}});
  EXPECT_THROW(run_experiment(config(t, {0})),
               std::invalid_argument); // shorter than catalog
  EXPECT_THROW(run_experiment(config(t, {0, 1, 7})),
               std::invalid_argument); // unknown disk
}

TEST_F(DispatcherFixture, CacheHitsBypassDisks) {
  const auto t = trace({{0.0, 0}, {10.0, 0}}); // miss -> disk, then hit
  auto cfg = config(t, {0, 1, 0});
  cfg.cache = CacheSpec::lru(util::gb(1.0));
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.cache.hits, 1u);
  EXPECT_EQ(r.cache.misses, 1u);
  // The hit completes in zero time and never reaches a disk.
  EXPECT_EQ(r.hits_response.count(), 1u);
  EXPECT_DOUBLE_EQ(r.hits_response.max(), 0.0);
  EXPECT_EQ(r.per_disk[0].response.count(), 1u);
  EXPECT_EQ(r.per_disk[1].response.count(), 0u);
  EXPECT_EQ(r.response.count(), 2u);
  EXPECT_DOUBLE_EQ(r.response.min(), 0.0);
}

TEST_F(DispatcherFixture, ComputesCatalogLayoutExtents) {
  // Mapping {0, 1, 0}: files 0 and 2 share disk 0, packed in id order.
  const auto extents = workload::layout_extents(catalog_, {0, 1, 0}, 2);
  EXPECT_EQ(extents[0].lba, 0u);
  EXPECT_EQ(extents[0].blocks, util::blocks_of(util::mb(72.0)));
  EXPECT_EQ(extents[1].lba, 0u); // its own disk's address space
  EXPECT_EQ(extents[2].lba, util::blocks_of(util::mb(72.0)));
  EXPECT_EQ(extents[2].blocks, util::blocks_of(util::mb(36.0)));
}

TEST_F(DispatcherFixture, StampsRequestsWithLayoutLba) {
  // With an SSTF disk the service order reveals the submitted LBAs.
  // Layout on disk 0 in id order: file 0 at [0, b0), file 1 at [b0, b0+b1),
  // file 2 at [b0+b1, ...).  Serving file 0 parks the head exactly at
  // file 1's extent, so the queued file-1 request (id 2) beats the
  // earlier-arrived file-2 request (id 1) — FCFS would serve 0, 1, 2.
  const auto t = trace({{0.0, 0}, {0.0, 2}, {0.0, 1}});
  auto cfg = config(t, {0, 0, 0}, 1);
  cfg.scheduler = SchedulerSpec::sstf();
  EXPECT_EQ(completion_order(cfg), (std::vector<std::uint64_t>{0, 2, 1}));
  cfg.scheduler = SchedulerSpec::fcfs();
  EXPECT_EQ(completion_order(cfg), (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST_F(DispatcherFixture, ExplicitRequestLbaOverridesLayout) {
  // A trace-pinned lba reaches the disk: the single request's positioning
  // is billed for the pinned distance, not the layout extent's (file 0's
  // layout lba is 0 = the head's start, which would cost only the settle
  // floor).
  const std::uint64_t pinned = util::blocks_of(params_.capacity) / 2;
  const auto t = trace({{0.0, 0, pinned}});
  auto cfg = config(t, {0, 0, 0}, 1);
  cfg.scheduler = SchedulerSpec::sstf();
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.response.count(), 1u);
  const double dist = static_cast<double>(pinned) /
                      static_cast<double>(util::blocks_of(params_.capacity));
  EXPECT_NEAR(r.response.max(),
              params_.seek_time(dist) + params_.avg_rotation_s +
                  params_.transfer_time(util::mb(72.0)),
              1e-9);
}

TEST_F(DispatcherFixture, OrchestratedRoutingKeepsThePinnedLba) {
  // Redirection with a single replica changes no routing decision, so the
  // pinned request must be served exactly as with orchestration off — at
  // the pinned lba, not at file 0's layout lba.
  const std::uint64_t pinned = util::blocks_of(params_.capacity) / 2;
  const auto t = trace({{0.0, 0, pinned}});
  auto cfg = config(t, {0, 0, 0}, 1);
  cfg.scheduler = SchedulerSpec::sstf();
  const auto off = run_experiment(cfg);
  cfg.orch = OrchSpec::parse("redirect");
  const auto redirect = run_experiment(cfg);
  ASSERT_EQ(off.response.count(), 1u);
  ASSERT_EQ(redirect.response.count(), 1u);
  EXPECT_EQ(redirect.response.max(), off.response.max());

  // Every request a write on an always-on primary: the write goes through
  // to the primary copy, again at the pinned lba.  The log disk is disk 1.
  auto writes = config(t, {0, 0, 0}, 2);
  writes.scheduler = SchedulerSpec::sstf();
  writes.orch = OrchSpec::parse("offload:1+writes:1");
  const auto through = run_experiment(writes);
  ASSERT_EQ(through.per_disk[0].response.count(), 1u);
  EXPECT_EQ(through.response.max(), off.response.max());
}

TEST_F(DispatcherFixture, NoCacheMeansEveryRequestHitsDisks) {
  const auto t = trace({{0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 0}});
  const auto r = run_experiment(config(t, {0, 0, 0}));
  EXPECT_EQ(r.cache.hits + r.cache.misses, 0u);
  EXPECT_EQ(r.hits_response.count(), 0u);
  EXPECT_EQ(r.per_disk[0].response.count(), 5u);
}

} // namespace
} // namespace spindown::sys
