// offload.h — write off-loading with deferred destage (fleet orchestration,
// mechanism 2).
//
// A write aimed at a sleeping data disk would force a spin-up for a request
// the client never waits on the placement of.  Instead, a small tier of
// always-on *log disks* (appended after the data disks, spin policy
// "never") absorbs the write: the foreground service happens on the log
// disk, a PendingWrite records the debt, and the buffered bytes are
// *destaged* to the home disk later as background I/O — either when the
// home disk next serves a foreground request (it is spinning anyway) or
// when the destage deadline expires, whichever comes first.  Until the
// destage lands, reads of an off-loaded file are routed to the log copy, so
// the freshest bytes are always the ones served.
//
// WriteOffload only keeps the books: buffer space used per log disk (the
// room check), each data disk's debt, the log-structured LBA cursors
// (wrapping at the disk's capacity) and the live log copies.  *Which* log
// disk absorbs a write is the controller's decision (FleetController::
// route picks the one with the most free space and off-loads only when its
// backlog is shorter than a spin-up), passed in as an argument.
//
// Determinism: deadlines are min(t + deadline_s, horizon), so with arrivals
// fed in non-decreasing t the pending queue is created in non-decreasing
// deadline order and drain_due() is a pop from the head — no ordering data
// structure, no ties to break.  The horizon cap guarantees every pending
// write destages inside the measurement window.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::orch {

/// One buffered write: the debt owed to data disk `target`.
struct PendingWrite {
  double deadline = 0.0;         ///< latest destage time (<= horizon)
  std::uint32_t target = 0;      ///< home data disk
  std::uint32_t log_disk = 0;    ///< global id of the absorbing log disk
  workload::FileId file = 0;
  std::uint64_t request_id = 0;  ///< the foreground write's id
  util::Bytes bytes = 0;
  std::uint64_t target_lba = 0;  ///< home extent (destage destination)
  std::uint64_t log_lba = 0;     ///< log-cursor extent (reads until destage)
  std::uint64_t blocks = 0;
};

class WriteOffload {
public:
  /// Log disks occupy global ids [data_disks, data_disks + log_disks);
  /// each has `log_capacity` bytes of buffer space.  `horizon_s` caps every
  /// deadline so the tier drains inside the measurement window.  `files`
  /// (the catalog size) sizes the file-id index up front; ids past it grow
  /// the index on demand.
  WriteOffload(std::uint32_t data_disks, std::uint32_t log_disks,
               util::Bytes log_capacity, double deadline_s, double horizon_s,
               std::size_t files = 0);

  struct LogCopy {
    std::uint32_t log_disk = 0; ///< global disk id
    std::uint64_t log_lba = 0;
  };

  /// Buffer space not yet holding a pending write on log disk `log_disk`
  /// (global id).
  util::Bytes free_space(std::uint32_t log_disk) const {
    return capacity_ - used_[log_disk - data_disks_];
  }

  /// Buffer a write aimed at sleeping data disk `target` on log disk
  /// `log_disk` (global id, chosen by the caller).  Returns the log
  /// placement, or nullopt when that log disk has no room (the caller then
  /// writes through to the home disk).
  std::optional<LogCopy> absorb(std::uint32_t log_disk, double t,
                                std::uint64_t request_id,
                                workload::FileId file, util::Bytes bytes,
                                std::uint64_t blocks,
                                std::uint64_t target_lba,
                                std::uint32_t target);

  /// Freshest buffered copy of `file`, if one is still pending.
  std::optional<LogCopy> log_copy(workload::FileId file) const {
    if (file >= latest_.size() || latest_[file] == kNil) return std::nullopt;
    const PendingWrite& p = pending_[latest_[file] - base_];
    return LogCopy{p.log_disk, p.log_lba};
  }

  /// True while data disk `target` owes at least one live write; O(1).
  bool has_pending(std::uint32_t target) const {
    if (target >= by_disk_.size()) return false;
    const DiskDebt& debt = by_disk_[target];
    return debt.head < debt.seqs.size();
  }

  /// False when drain_due(t) would settle nothing: the oldest unscanned
  /// write is not yet due, so (deadlines being non-decreasing) none is.
  /// O(1); may be true when only already-settled writes are due.
  bool may_have_due(double t) const {
    return head_ < pending_.size() && pending_[head_].deadline <= t;
  }

  /// Move every live pending write owed to `target` into `out` (in
  /// buffering order) and settle the debt (release log space, forget the
  /// log copies).
  void drain_disk(std::uint32_t target, std::vector<PendingWrite>& out);

  /// As drain_disk, but for every pending write whose deadline is <= `t`,
  /// fleet-wide, in deadline order.
  void drain_due(double t, std::vector<PendingWrite>& out);

  std::uint64_t buffered() const { return buffered_; }
  std::uint64_t destaged() const { return destaged_; }
  std::uint64_t live() const { return buffered_ - destaged_; }

private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Per data disk: its buffered writes, oldest first.  Deadline drains
  /// settle a prefix of each list, so [head, seqs.size()) is exactly the
  /// disk's live debt.
  struct DiskDebt {
    std::vector<std::uint32_t> seqs;
    std::size_t head = 0;
  };

  void settle(std::uint32_t seq, std::vector<PendingWrite>& out);

  std::uint32_t data_disks_;
  double deadline_s_;
  double horizon_s_;
  util::Bytes capacity_;
  std::uint64_t capacity_blocks_;
  std::vector<util::Bytes> used_; ///< per log disk (local id), bytes

  std::vector<PendingWrite> pending_; ///< head_ = oldest unscanned
  std::vector<bool> done_;            ///< parallel to pending_
  std::size_t head_ = 0;
  /// Writes are numbered in buffering order and pending_[i] holds number
  /// base_ + i, so dropping the settled prefix rewrites no stored number.
  std::uint32_t base_ = 0;
  std::vector<DiskDebt> by_disk_;
  std::vector<std::uint32_t> latest_; ///< file -> newest live number, kNil
  std::vector<std::uint64_t> log_cursor_; ///< per log disk, blocks
  std::uint64_t buffered_ = 0;
  std::uint64_t destaged_ = 0;
};

} // namespace spindown::orch
