// rng.h — deterministic pseudo-random number generation.
//
// Simulation experiments must be reproducible from a single 64-bit seed, so
// we carry our own generator instead of relying on the (implementation
// defined) std:: distributions.  The generator is xoshiro256**, seeded via
// SplitMix64, which is the standard, well-tested combination; all sampling
// routines on top of it are written out explicitly so every platform produces
// bit-identical streams.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace spindown::util {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** by Blackman & Vigna — fast, 256-bit state, passes BigCrush.
class Rng {
public:
  /// Seed via SplitMix64 expansion; the default seed gives a usable stream.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() {
    // Take the top 53 bits: uniform in [0,1) with full double precision.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi] (unbiased, via rejection).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Exponential variate with the given rate (mean 1/rate); rate must be > 0.
  double exponential(double rate) {
    if (rate <= 0.0) throw_bad_rate();
    // 1 - uniform01() is in (0,1], so the log is finite.
    return -std::log(1.0 - uniform01()) / rate;
  }

  /// Standard normal via Box–Muller (no cached spare, keeps state minimal).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 where Knuth's product underflows).
  std::uint64_t poisson(double mean);

  /// Fisher–Yates shuffle of a span, deterministic given the stream state.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(0, i - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Split off an independent generator (for parallel sweeps): the child is
  /// seeded from this stream, so a parent seed fully determines the family.
  Rng split();

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  [[noreturn]] static void throw_bad_rate();

  std::array<std::uint64_t, 4> state_{};
};

/// Walker alias method for O(1) sampling from a fixed discrete distribution.
/// Build cost is O(n); ideal for the Zipf popularity table with n = 40,000+.
class AliasTable {
public:
  AliasTable() = default;
  /// Weights need not be normalized; they must be non-negative, not all zero.
  explicit AliasTable(std::span<const double> weights);

  /// Sample an index in [0, size()); throws std::logic_error on an empty
  /// table.  The draws are Rng::uniform_int(0, size() - 1) then one
  /// uniform01(), with the rejection limit computed once at construction.
  std::size_t sample(Rng& rng) const {
    if (span_ == 0) throw_empty();
    std::uint64_t v = rng.next_u64();
    while (v >= limit_) v = rng.next_u64();
    const auto i = static_cast<std::size_t>(v % span_);
    return rng.uniform01() < prob_[i] ? i : alias_[i];
  }

  std::size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

private:
  [[noreturn]] static void throw_empty();

  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::uint64_t span_ = 0;  ///< size(); 0 marks an empty table
  std::uint64_t limit_ = 0; ///< uniform_int's rejection limit for span_
};

} // namespace spindown::util
