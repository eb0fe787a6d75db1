#include "orch/offload.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spindown::orch {

WriteOffload::WriteOffload(std::uint32_t data_disks, std::uint32_t log_disks,
                           util::Bytes log_capacity, double deadline_s,
                           double horizon_s, std::size_t files)
    : data_disks_(data_disks), deadline_s_(deadline_s),
      horizon_s_(horizon_s), capacity_(log_capacity),
      capacity_blocks_(std::max<std::uint64_t>(
          1, log_capacity / util::kBlockBytes)),
      used_(log_disks, 0), by_disk_(data_disks),
      latest_(files, kNil), log_cursor_(log_disks, 0) {
  if (data_disks == 0 || log_disks == 0) {
    throw std::invalid_argument{
        "WriteOffload: need at least one data disk and one log disk"};
  }
  if (!(deadline_s > 0.0)) {
    throw std::invalid_argument{"WriteOffload: deadline must be positive"};
  }
}

std::optional<WriteOffload::LogCopy> WriteOffload::absorb(
    std::uint32_t log_disk, double t, std::uint64_t request_id,
    workload::FileId file, util::Bytes bytes, std::uint64_t blocks,
    std::uint64_t target_lba, std::uint32_t target) {
  const std::uint32_t local = log_disk - data_disks_;
  assert(local < used_.size()); // a log disk, not a data disk
  if (bytes > free_space(log_disk)) return std::nullopt;
  if (buffered_ >= kNil) {
    throw std::length_error{"WriteOffload: write numbers exhausted"};
  }
  used_[local] += bytes;

  PendingWrite p;
  // The horizon cap keeps deadlines monotone (t is non-decreasing) *and*
  // guarantees the tier drains inside the measurement window.
  p.deadline = std::min(t + deadline_s_, horizon_s_);
  p.target = target;
  p.log_disk = log_disk;
  p.file = file;
  p.request_id = request_id;
  p.bytes = bytes;
  p.target_lba = target_lba;
  p.log_lba = log_cursor_[local];
  p.blocks = blocks;
  log_cursor_[local] = (log_cursor_[local] + blocks) % capacity_blocks_;

  const auto seq = static_cast<std::uint32_t>(buffered_);
  pending_.push_back(p);
  done_.push_back(false);
  by_disk_[target].seqs.push_back(seq);
  if (file >= latest_.size()) {
    latest_.resize(std::max<std::size_t>(file + std::size_t{1},
                                         2 * latest_.size()),
                   kNil);
  }
  latest_[file] = seq; // newer write shadows an older pending copy
  ++buffered_;
  return LogCopy{p.log_disk, p.log_lba};
}

void WriteOffload::settle(std::uint32_t seq, std::vector<PendingWrite>& out) {
  const PendingWrite& p = pending_[seq - base_];
  used_[p.log_disk - data_disks_] -= p.bytes;
  if (latest_[p.file] == seq) latest_[p.file] = kNil;
  done_[seq - base_] = true;
  ++destaged_;
  out.push_back(p);
}

void WriteOffload::drain_disk(std::uint32_t target,
                              std::vector<PendingWrite>& out) {
  if (target >= by_disk_.size()) return;
  DiskDebt& debt = by_disk_[target];
  for (std::size_t i = debt.head; i < debt.seqs.size(); ++i) {
    settle(debt.seqs[i], out);
  }
  debt.seqs.clear();
  debt.head = 0;
}

void WriteOffload::drain_due(double t, std::vector<PendingWrite>& out) {
  // Deadlines are non-decreasing in insertion order (monotone t, constant
  // deadline_s, horizon cap), so "everything due" is a prefix.
  while (head_ < pending_.size()) {
    if (done_[head_]) {
      ++head_;
      continue;
    }
    const PendingWrite& p = pending_[head_];
    if (p.deadline > t) break;
    // The oldest live write fleet-wide is also the oldest live write owed
    // to its disk, so it leaves the front of that disk's list.
    DiskDebt& debt = by_disk_[p.target];
    assert(debt.seqs[debt.head] == base_ + head_);
    if (2 * ++debt.head > debt.seqs.size()) {
      debt.seqs.erase(debt.seqs.begin(),
                      debt.seqs.begin() +
                          static_cast<std::ptrdiff_t>(debt.head));
      debt.head = 0;
    }
    settle(static_cast<std::uint32_t>(base_ + head_), out);
    ++head_;
  }
  // Drop the settled prefix once it is the larger half: memory follows the
  // live writes, not every write ever buffered.
  if (2 * head_ > pending_.size()) {
    const auto drop = static_cast<std::ptrdiff_t>(head_);
    pending_.erase(pending_.begin(), pending_.begin() + drop);
    done_.erase(done_.begin(), done_.begin() + drop);
    base_ += static_cast<std::uint32_t>(head_);
    head_ = 0;
  }
}

} // namespace spindown::orch
