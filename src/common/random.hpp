// Deterministic, allocation-free PRNGs and distributions for workload
// generation. <random>'s engines are avoided on the measurement path: their
// state is large and their call overhead is visible at the scale of a single
// atomic operation.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace am {

/// SplitMix64 — tiny, fast, passes BigCrush for its size; used both directly
/// and to seed Xoshiro.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse generator for workload decisions.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next() noexcept {
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

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    __extension__ using uint128 = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<uint128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Zipf-distributed index sampler over {0, ..., n-1} with exponent s.
/// Used by the low-contention workloads with skewed sharing: a small hot set
/// of lines receives most accesses, the tail is effectively private.
///
/// Implementation: inverse-CDF table searched through a guide table. A draw
/// u lies in bucket j = floor(u * K) of K equal buckets (K a power of two,
/// so u * K and j / K are exact); guide_[j] is the first index whose cdf
/// reaches j / K, and a forward scan from there returns exactly the index
/// std::lower_bound(cdf, u) would. Built by one merge pass, O(n + K).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t sample(Xoshiro256& rng) const noexcept {
    return index_of(rng.next_double());
  }
  /// The first index whose cdf is >= @p u, for u in [0, 1].
  std::size_t index_of(double u) const noexcept {
    std::size_t i = guide_[static_cast<std::size_t>(u * buckets_)];
    while (cdf_[i] < u) ++i;  // stops at cdf_.back() == 1.0
    return i;
  }
  std::size_t size() const noexcept { return cdf_.size(); }
  double exponent() const noexcept { return s_; }
  const std::vector<double>& cdf() const noexcept { return cdf_; }
  /// K, the number of guide buckets.
  std::size_t guide_buckets() const noexcept { return guide_.size() - 1; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  ///< K + 1 entries; guide_[K] for u = 1
  double buckets_ = 0.0;              ///< K as a double
  double s_;
};

}  // namespace am
