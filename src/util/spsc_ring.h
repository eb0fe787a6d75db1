// spsc_ring.h — fixed-capacity lock-free single-producer/single-consumer
// ring buffer.
//
// The fleet router (sys/fleet.cpp) ships pre-routed submission batches to
// shard workers over one of these per direction; the PR-7 mailbox it
// replaces paid a mutex acquisition plus a condition-variable signal per
// window on the hot path.  Here the steady-state transfer is two atomic
// operations — a release store by the producer, an acquire load by the
// consumer — with head and tail on separate cache lines so neither side
// ping-pongs the other's cursor.  Each side additionally caches its last
// view of the opposite cursor, so a push/pop only touches the shared
// counter it owns until the cached view says the ring might be full/empty.
//
// try_push/try_pop are wait-free.  The blocking pop spins briefly, then
// yields, then sleeps in short fixed increments; it returns false once
// close() has been called and the ring has drained, which is the
// shutdown/abort path.  There is no blocking push: the fleet only pushes
// arenas it popped from a ring of equal capacity, so a push cannot find
// the ring full.  close() may be called by either side or by a third
// thread.
//
// Determinism: this header is pure synchronization — no wall-clock reads,
// no ambient entropy (sleep_for takes a duration and never observes a
// clock), so anything built on it stays bit-deterministic as long as the
// *values* transferred do not depend on timing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace spindown::util {

/// Destructive-interference padding.  std::hardware_destructive_
/// interference_size is ABI-unstable (GCC warns when it leaks into public
/// headers), so pin the conventional 64-byte line.
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscRing {
public:
  /// Capacity is rounded up to a power of two (minimum 2) so the cursor
  /// arithmetic is a mask, never a modulo.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) {
      if (cap > (std::size_t{1} << 62)) {
        throw std::invalid_argument{"SpscRing: capacity overflow"};
      }
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Occupancy snapshot; exact only when neither side is mid-operation.
  std::size_t size() const {
    const auto tail = tail_.load(std::memory_order_acquire);
    const auto head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool empty() const { return size() == 0; }

  /// Producer side.  Moves from `value` and returns true when a slot is
  /// free; leaves `value` untouched and returns false when the ring is
  /// full.  Wait-free.
  bool try_push(T& value) {
    const auto tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  Moves the oldest element into `out` and returns true;
  /// returns false when the ring is empty.  Wait-free.
  bool try_pop(T& out) {
    const auto head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[static_cast<std::size_t>(head) & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Blocking pop: retries with backoff until an element arrives.  Returns
  /// false once the ring is closed *and* drained — elements pushed before
  /// close() are still delivered.
  bool pop(T& out) {
    Backoff backoff;
    while (!try_pop(out)) {
      if (closed() && empty()) return false;
      backoff.pause();
    }
    return true;
  }

  /// Shutdown/abort signal: wakes a blocked pop (it returns false once the
  /// ring has drained).
  /// Idempotent; callable from any thread.
  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

private:
  /// Spin a little (the common stall is the peer being one window behind),
  /// then get off the core: under-subscribed fleets park workers here for
  /// most of the run, and on an oversubscribed host a spinning peer would
  /// steal the timeslice the other side needs to make progress.
  struct Backoff {
    std::uint32_t spins = 0;
    void pause() {
      ++spins;
      if (spins < 64) return;           // busy-spin: peer is likely active
      if (spins < 256 || (spins & 7) != 0) {
        std::this_thread::yield();
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds{50});
    }
  };

  std::vector<T> slots_;
  std::size_t mask_ = 1;
  /// Producer cursor plus the producer's cached view of the consumer's.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLineSize) std::uint64_t head_cache_ = 0;
  /// Consumer cursor plus the consumer's cached view of the producer's.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLineSize) std::uint64_t tail_cache_ = 0;
  alignas(kCacheLineSize) std::atomic<bool> closed_{false};
};

} // namespace spindown::util
