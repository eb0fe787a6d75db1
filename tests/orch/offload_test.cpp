// offload_test.cpp — write off-loading: log-tier placement, destage
// deadlines (edge cases), and the log-copy shadowing contract.
#include "orch/offload.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/units.h"

namespace spindown::orch {
namespace {

constexpr std::uint32_t kDataDisks = 4;
constexpr std::uint32_t kLogDisks = 2;
constexpr double kDeadline = 100.0;
constexpr double kHorizon = 1000.0;

WriteOffload make_offload(util::Bytes capacity = util::gb(1.0)) {
  return WriteOffload{kDataDisks, kLogDisks, capacity, kDeadline, kHorizon};
}

TEST(OrchOffload, AbsorbPlacesOnLogTierAndRecordsDebt) {
  auto off = make_offload();
  const auto copy = off.absorb(/*log_disk=*/kDataDisks + 1, /*t=*/10.0,
                               /*id=*/7, /*file=*/3, util::mb(64.0),
                               /*blocks=*/128, /*target_lba=*/555,
                               /*target=*/2);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->log_disk, kDataDisks + 1); // the caller's choice
  EXPECT_EQ(off.free_space(kDataDisks + 1), util::gb(1.0) - util::mb(64.0));
  EXPECT_EQ(off.free_space(kDataDisks), util::gb(1.0));
  EXPECT_TRUE(off.has_pending(2));
  EXPECT_FALSE(off.has_pending(1));
  EXPECT_EQ(off.buffered(), 1u);
  EXPECT_EQ(off.live(), 1u);

  const auto read_copy = off.log_copy(3);
  ASSERT_TRUE(read_copy.has_value());
  EXPECT_EQ(read_copy->log_disk, copy->log_disk);
  EXPECT_EQ(read_copy->log_lba, copy->log_lba);
}

TEST(OrchOffload, DeadlineExactlyDuePopsInclusive) {
  auto off = make_offload();
  off.absorb(kDataDisks, 10.0, 1, 0, util::mb(1.0), 2, 0, 0);
  std::vector<PendingWrite> out;
  // One tick before the deadline: nothing due.
  off.drain_due(10.0 + kDeadline - 1e-9, out);
  EXPECT_TRUE(out.empty());
  // At the deadline exactly: the write destages (<=, not <).
  off.drain_due(10.0 + kDeadline, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].deadline, 10.0 + kDeadline);
  EXPECT_EQ(out[0].target, 0u);
  EXPECT_EQ(out[0].target_lba, 0u);
  EXPECT_EQ(off.live(), 0u);
  EXPECT_FALSE(off.has_pending(0));
  EXPECT_FALSE(off.log_copy(0).has_value());
}

TEST(OrchOffload, DeadlineIsCappedAtTheHorizon) {
  auto off = make_offload();
  // Absorbed 10 s before the horizon with a 100 s deadline: the cap pulls
  // the destage inside the measurement window.
  off.absorb(kDataDisks, kHorizon - 10.0, 1, 0, util::mb(1.0), 2, 0, 1);
  std::vector<PendingWrite> out;
  off.drain_due(kHorizon - 10.5, out);
  EXPECT_TRUE(out.empty());
  off.drain_due(kHorizon, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].deadline, kHorizon);
}

TEST(OrchOffload, TriggeredDrainSettlesBeforeTheDeadline) {
  auto off = make_offload();
  off.absorb(kDataDisks, 10.0, 1, 0, util::mb(1.0), 2, 100, 3);
  off.absorb(kDataDisks, 11.0, 2, 1, util::mb(1.0), 2, 200, 3);
  off.absorb(kDataDisks, 12.0, 3, 2, util::mb(1.0), 2, 300, 1);

  // The target disk serves a foreground request: its whole debt destages
  // now, in buffering order; the other disk's debt is untouched.
  std::vector<PendingWrite> out;
  off.drain_disk(3, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request_id, 1u);
  EXPECT_EQ(out[1].request_id, 2u);
  EXPECT_FALSE(off.has_pending(3));
  EXPECT_TRUE(off.has_pending(1));

  // The deadline pass later must not re-emit the settled writes.
  out.clear();
  off.drain_due(kHorizon, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_id, 3u);
  EXPECT_EQ(off.destaged(), 3u);
  EXPECT_EQ(off.live(), 0u);
}

TEST(OrchOffload, NewerWriteShadowsOlderUntilBothDestage) {
  auto off = make_offload();
  const auto first =
      off.absorb(kDataDisks, 10.0, 1, 5, util::mb(1.0), 2, 0, 0);
  const auto second =
      off.absorb(kDataDisks, 20.0, 2, 5, util::mb(1.0), 2, 0, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Reads see the freshest copy.
  const auto copy = off.log_copy(5);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->log_lba, second->log_lba);
  // Both pendings destage (the home disk converges); the shadow map empties.
  std::vector<PendingWrite> out;
  off.drain_disk(0, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(off.log_copy(5).has_value());
}

TEST(OrchOffload, FullTierRejectsUntilSpaceIsReleased) {
  auto off = WriteOffload{kDataDisks, /*log_disks=*/1, util::mb(10.0),
                          kDeadline, kHorizon};
  ASSERT_TRUE(
      off.absorb(kDataDisks, 1.0, 1, 0, util::mb(6.0), 12, 0, 0).has_value());
  // 6 MB of a 10 MB buffer used: another 6 MB write cannot be absorbed —
  // the caller falls back to writing through to the home disk.
  EXPECT_EQ(off.free_space(kDataDisks), util::mb(4.0));
  EXPECT_FALSE(
      off.absorb(kDataDisks, 2.0, 2, 1, util::mb(6.0), 12, 0, 1).has_value());
  // Destaging returns the space and the tier absorbs again.
  std::vector<PendingWrite> out;
  off.drain_disk(0, out);
  EXPECT_EQ(off.free_space(kDataDisks), util::mb(10.0));
  EXPECT_TRUE(
      off.absorb(kDataDisks, 3.0, 3, 1, util::mb(6.0), 12, 0, 1).has_value());
}

TEST(OrchOffload, DeadlineDrainedDiskHasNoPendingDebt) {
  // A disk that never serves a foreground request is only ever drained by
  // deadlines; its settled writes must not count as pending debt.
  auto off = make_offload();
  std::vector<PendingWrite> out;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double t = static_cast<double>(i);
    ASSERT_TRUE(off.absorb(kDataDisks, t, i,
                           static_cast<workload::FileId>(i % 7),
                           util::mb(1.0), 2, 0, /*target=*/2)
                    .has_value());
    off.drain_due(t, out);
  }
  off.drain_due(kHorizon, out);
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_FALSE(off.has_pending(2));
  EXPECT_EQ(off.live(), 0u);
  std::vector<PendingWrite> none;
  off.drain_disk(2, none);
  EXPECT_TRUE(none.empty());
}

TEST(OrchOffload, DroppingTheSettledPrefixKeepsOrderAndCopies) {
  // Interleave deadline drains (which drop the settled prefix), triggered
  // drains and shadowing writes across many compactions: every write
  // destages exactly once, deadline drains stay in buffering order, and
  // the log copy a read sees is always the newest live one.
  auto off = make_offload();
  std::vector<PendingWrite> due, triggered;
  std::vector<std::uint64_t> newest(8, 0); // file -> request id + 1
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const double t = static_cast<double>(i) * 7.0;
    const auto file = static_cast<workload::FileId>(i % 8);
    const auto target = static_cast<std::uint32_t>(i % kDataDisks);
    const auto copy =
        off.absorb(kDataDisks + static_cast<std::uint32_t>(i % kLogDisks), t,
                   i, file, util::kBlockBytes, 1, i, target);
    ASSERT_TRUE(copy.has_value());
    newest[file] = i + 1;
    const std::size_t before = due.size();
    off.drain_due(t, due);
    for (std::size_t k = before; k < due.size(); ++k) {
      EXPECT_LE(due[k].deadline, t);
      if (k > 0) {
        EXPECT_LT(due[k - 1].request_id, due[k].request_id);
      }
    }
    if (i % 13 == 0) off.drain_disk((target + 1) % kDataDisks, triggered);
    for (auto* batch : {&due, &triggered}) {
      for (const PendingWrite& p : *batch) {
        if (newest[p.file] == p.request_id + 1) newest[p.file] = 0;
      }
    }
    EXPECT_EQ(off.log_copy(file).has_value(), newest[file] != 0);
  }
  off.drain_due(kHorizon * 1e3, due);
  std::vector<bool> seen(5000, false);
  for (const auto* batch : {&due, &triggered}) {
    for (const PendingWrite& p : *batch) {
      ASSERT_FALSE(seen[p.request_id]) << p.request_id;
      seen[p.request_id] = true;
      EXPECT_EQ(p.target_lba, p.request_id); // payload survives the move
    }
  }
  EXPECT_EQ(due.size() + triggered.size(), 5000u);
  EXPECT_EQ(off.live(), 0u);
  for (std::uint32_t d = 0; d < kDataDisks; ++d) {
    EXPECT_FALSE(off.has_pending(d));
  }
}

TEST(OrchOffload, FileIndexGrowsPastItsInitialSize) {
  auto off = WriteOffload{kDataDisks, kLogDisks, util::gb(1.0), kDeadline,
                          kHorizon, /*files=*/4};
  ASSERT_TRUE(off.absorb(kDataDisks, 1.0, 1, 1'000'000, util::mb(1.0), 2, 0, 0)
                  .has_value());
  EXPECT_TRUE(off.log_copy(1'000'000).has_value());
  EXPECT_FALSE(off.log_copy(999'999).has_value());
  EXPECT_FALSE(off.log_copy(3).has_value());
}

} // namespace
} // namespace spindown::orch
