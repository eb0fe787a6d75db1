// lru.h — least-recently-used cache (the paper's §5.1 configuration) and
// its first-in-first-out ablation baseline, one implementation.
//
// File ids are dense catalog indices, so lookup is a flat array: index_
// maps a file id to its node (kNil when absent), 4 bytes per catalog file.
// Nodes live in a pool that holds only resident files; the recency list
// runs through the pool and recycled nodes go on a free list.  Once the
// pool and the index have grown, an access neither hashes nor allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.h"

namespace spindown::cache {

class ListCache : public FileCache {
public:
  bool access(workload::FileId id, util::Bytes size) override;
  bool contains(workload::FileId id) const override;
  void reserve(std::size_t entries) override { nodes_.reserve(entries); }

  util::Bytes capacity() const override { return capacity_; }
  util::Bytes used() const override { return used_; }
  std::size_t entries() const override { return entries_; }
  const CacheStats& stats() const override { return stats_; }

protected:
  /// `files` sizes the index up front (the catalog size); ids past it grow
  /// the index on demand.  `promote_on_hit` is LRU; without it the list
  /// keeps insertion order (FIFO).
  ListCache(util::Bytes capacity, std::size_t files, bool promote_on_hit);

private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  struct Node {
    workload::FileId id;
    std::uint32_t prev;
    std::uint32_t next;
    util::Bytes size;
  };

  std::uint32_t unlink(std::uint32_t n); ///< returns n
  void push_front(std::uint32_t n);
  void evict_one();

  util::Bytes capacity_;
  util::Bytes used_ = 0;
  std::size_t entries_ = 0;
  bool promote_on_hit_;
  std::vector<std::uint32_t> index_; ///< file id -> node, kNil if absent
  std::vector<Node> nodes_;
  std::uint32_t head_ = kNil; ///< newest (most recently used under LRU)
  std::uint32_t tail_ = kNil; ///< next victim
  std::uint32_t free_ = kNil; ///< recycled nodes, linked through next
  CacheStats stats_;
};

class LruCache final : public ListCache {
public:
  explicit LruCache(util::Bytes capacity, std::size_t files = 0)
      : ListCache(capacity, files, /*promote_on_hit=*/true) {}
  std::string name() const override { return "lru"; }
};

class FifoCache final : public ListCache {
public:
  explicit FifoCache(util::Bytes capacity, std::size_t files = 0)
      : ListCache(capacity, files, /*promote_on_hit=*/false) {}
  std::string name() const override { return "fifo"; }
};

} // namespace spindown::cache
