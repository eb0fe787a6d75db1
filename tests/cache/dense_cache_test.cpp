// dense_cache_test.cpp — differential test of the dense-index LRU/FIFO
// caches against the node-based reference implementation they replaced
// (std::list + unordered_map LRU, std::deque + unordered_map FIFO).
//
// Both sides see the same random access stream.  It mixes zero-byte and
// oversized files, repeated ids with a different size (a hit keeps the
// admitted size), and sparse ids (0 and 10^6) that force the index to grow
// past its initial size.  After every access the hit/miss result, stats,
// used bytes, entry count and contains() for every id the stream can touch
// must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/lru.h"
#include "util/rng.h"

namespace spindown::cache {
namespace {

using workload::FileId;

class RefLru {
public:
  explicit RefLru(util::Bytes capacity) : capacity_(capacity) {}
  bool access(FileId id, util::Bytes size) {
    if (const auto it = index_.find(id); it != index_.end()) {
      ++stats_.hits;
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    ++stats_.misses;
    if (size > capacity_) return false;
    while (used_ + size > capacity_) {
      const auto& victim = order_.back();
      used_ -= victim.second;
      index_.erase(victim.first);
      order_.pop_back();
      ++stats_.evictions;
    }
    order_.emplace_front(id, size);
    index_[id] = order_.begin();
    used_ += size;
    return false;
  }
  bool contains(FileId id) const { return index_.contains(id); }
  util::Bytes used() const { return used_; }
  std::size_t entries() const { return index_.size(); }
  const CacheStats& stats() const { return stats_; }

private:
  using Entry = std::pair<FileId, util::Bytes>;
  util::Bytes capacity_;
  util::Bytes used_ = 0;
  std::list<Entry> order_;
  std::unordered_map<FileId, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

class RefFifo {
public:
  explicit RefFifo(util::Bytes capacity) : capacity_(capacity) {}
  bool access(FileId id, util::Bytes size) {
    if (sizes_.contains(id)) {
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    if (size > capacity_) return false;
    while (used_ + size > capacity_) {
      const auto it = sizes_.find(order_.front());
      order_.pop_front();
      used_ -= it->second;
      sizes_.erase(it);
      ++stats_.evictions;
    }
    order_.push_back(id);
    sizes_[id] = size;
    used_ += size;
    return false;
  }
  bool contains(FileId id) const { return sizes_.contains(id); }
  util::Bytes used() const { return used_; }
  std::size_t entries() const { return sizes_.size(); }
  const CacheStats& stats() const { return stats_; }

private:
  util::Bytes capacity_;
  util::Bytes used_ = 0;
  std::deque<FileId> order_;
  std::unordered_map<FileId, util::Bytes> sizes_;
  CacheStats stats_;
};

constexpr util::Bytes kCapacity = 10'000;
constexpr std::size_t kAccesses = 100'000;
constexpr FileId kIds = 400;        ///< dense ids 0..kIds-1
constexpr FileId kSparse = 1'000'000; ///< far past any initial index

/// One access of the mixed stream: mostly a skewed pick from the dense ids
/// with sizes in [1, 1000], plus the edge cases listed in the file header.
std::pair<FileId, util::Bytes> next_access(util::Rng& rng) {
  const double u = rng.uniform01();
  if (u < 0.02) return {0, rng.uniform_int(0, 1000)};
  if (u < 0.04) return {kSparse, rng.uniform_int(0, 1000)};
  const auto any = [&rng] {
    return static_cast<FileId>(rng.uniform_int(0, kIds - 1));
  };
  if (u < 0.07) return {any(), 0};
  if (u < 0.09) return {any(), kCapacity + rng.uniform_int(1, 1000)};
  if (u < 0.10) return {any(), kCapacity};
  // Square the uniform to skew the id distribution toward low ids, so hits
  // and promotions happen alongside the misses.
  const double v = rng.uniform01();
  return {static_cast<FileId>(v * v * kIds), rng.uniform_int(1, 1000)};
}

template <typename Ref>
void run_differential(FileCache& cache, Ref& ref, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<FileId> touched(kIds);
  for (FileId id = 0; id < kIds; ++id) touched[id] = id;
  touched.push_back(kSparse);
  for (std::size_t i = 0; i < kAccesses; ++i) {
    const auto [id, size] = next_access(rng);
    ASSERT_EQ(cache.access(id, size), ref.access(id, size)) << "step " << i;
    ASSERT_EQ(cache.stats().hits, ref.stats().hits) << "step " << i;
    ASSERT_EQ(cache.stats().misses, ref.stats().misses) << "step " << i;
    ASSERT_EQ(cache.stats().evictions, ref.stats().evictions)
        << "step " << i;
    ASSERT_EQ(cache.used(), ref.used()) << "step " << i;
    ASSERT_EQ(cache.entries(), ref.entries()) << "step " << i;
    for (const FileId t : touched) {
      ASSERT_EQ(cache.contains(t), ref.contains(t))
          << "step " << i << " id " << t;
    }
  }
  // The stream really exercised every edge case.
  EXPECT_GT(ref.stats().hits, 1000u);
  EXPECT_GT(ref.stats().evictions, 1000u);
}

TEST(DenseCache, LruMatchesListReference) {
  LruCache cache{kCapacity, /*files=*/kIds};
  RefLru ref{kCapacity};
  run_differential(cache, ref, 11);
}

TEST(DenseCache, FifoMatchesDequeReference) {
  FifoCache cache{kCapacity, /*files=*/kIds};
  RefFifo ref{kCapacity};
  run_differential(cache, ref, 12);
}

TEST(DenseCache, UnsizedIndexGrowsOnDemand) {
  // files = 0: every id, sparse or not, grows the index.
  LruCache lru{kCapacity};
  RefLru lru_ref{kCapacity};
  run_differential(lru, lru_ref, 13);
  FifoCache fifo{kCapacity};
  RefFifo fifo_ref{kCapacity};
  run_differential(fifo, fifo_ref, 14);
}

TEST(DenseCache, SparseIdsPastTheIndexAreAbsentUntilAdmitted) {
  LruCache c{100, /*files=*/4};
  EXPECT_FALSE(c.contains(kSparse));
  EXPECT_FALSE(c.access(kSparse, 10));
  EXPECT_TRUE(c.contains(kSparse));
  EXPECT_TRUE(c.access(kSparse, 10));
  EXPECT_FALSE(c.contains(kSparse - 1));
}

} // namespace
} // namespace spindown::cache
