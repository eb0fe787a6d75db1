#include "cache/lru.h"

#include <algorithm>
#include <cassert>

namespace spindown::cache {

ListCache::ListCache(util::Bytes capacity, std::size_t files,
                     bool promote_on_hit)
    : capacity_(capacity), promote_on_hit_(promote_on_hit),
      index_(files, kNil) {}

bool ListCache::access(workload::FileId id, util::Bytes size) {
  if (contains(id)) {
    ++stats_.hits;
    if (promote_on_hit_) push_front(unlink(index_[id]));
    return true;
  }
  ++stats_.misses;
  if (size > capacity_) return false; // never admissible
  while (used_ + size > capacity_) evict_one();
  if (free_ == kNil) { // every pooled node is resident: grow the pool
    free_ = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{0, kNil, kNil, 0});
  }
  const std::uint32_t n = free_;
  free_ = nodes_[n].next;
  nodes_[n] = Node{id, kNil, kNil, size};
  push_front(n);
  if (id >= index_.size()) {
    index_.resize(std::max<std::size_t>(id + std::size_t{1},
                                        2 * index_.size()),
                  kNil);
  }
  index_[id] = n;
  used_ += size;
  ++entries_;
  return false;
}

bool ListCache::contains(workload::FileId id) const {
  return id < index_.size() && index_[id] != kNil;
}

std::uint32_t ListCache::unlink(std::uint32_t n) {
  const Node& node = nodes_[n];
  (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
  (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
  return n;
}

void ListCache::push_front(std::uint32_t n) {
  nodes_[n].prev = kNil;
  nodes_[n].next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
  head_ = n;
}

void ListCache::evict_one() {
  assert(tail_ != kNil);
  const std::uint32_t victim = tail_;
  unlink(victim);
  used_ -= nodes_[victim].size;
  index_[nodes_[victim].id] = kNil;
  nodes_[victim].next = free_;
  free_ = victim;
  --entries_;
  ++stats_.evictions;
}

} // namespace spindown::cache
