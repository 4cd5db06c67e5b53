#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <vector>

#include "common/random.hpp"

namespace am {
namespace {

TEST(SplitMix, DeterministicAndDistinct) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  SplitMix64 c(43);
  const auto x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro, Deterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, NextBelowBounds) {
  Xoshiro256 rng(1);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Xoshiro, NextBelowRoughlyUniform) {
  Xoshiro256 rng(3);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Zipf, UniformWhenExponentZero) {
  ZipfSampler z(10, 0.0);
  Xoshiro256 rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(Zipf, SkewPrefersSmallIndices) {
  ZipfSampler z(100, 1.2);
  Xoshiro256 rng(13);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50'000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[9] * 5);
  EXPECT_GT(counts[0], 10'000);
}

TEST(Zipf, SamplesAlwaysInRange) {
  ZipfSampler z(7, 0.99);
  Xoshiro256 rng(17);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(z.sample(rng), 7u);
}

/// What the sampler replaced: std::lower_bound over its cdf.
std::size_t lower_bound_index(const ZipfSampler& z, double u) {
  const std::vector<double>& cdf = z.cdf();
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(Zipf, GuideTableEqualsLowerBound) {
  for (const std::size_t n : {1u, 2u, 64u, 1000u}) {
    for (const double s : {0.0, 0.99, 2.0}) {
      const ZipfSampler z(n, s);
      // The draws' domain is [0, 1); index_of also takes 1.0 itself.
      const auto check = [&](double u) {
        if (u < 0.0 || u > 1.0) return;
        ASSERT_EQ(z.index_of(u), lower_bound_index(z, u))
            << "n=" << n << " s=" << s << " u=" << u;
      };
      const auto check_around = [&](double u) {
        check(u);
        check(std::nextafter(u, 0.0));
        check(std::nextafter(u, 2.0));
      };
      for (const double c : z.cdf()) check_around(c);
      const std::size_t k = z.guide_buckets();
      for (std::size_t j = 0; j <= k; ++j) {
        check_around(static_cast<double>(j) / static_cast<double>(k));
      }
      Xoshiro256 rng(n * 131 + static_cast<std::uint64_t>(s * 100));
      for (int i = 0; i < 1'000'000; ++i) check(rng.next_double());
      // sample() is index_of of the generator's next draw.
      Xoshiro256 a(5);
      Xoshiro256 b(5);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(z.sample(a), lower_bound_index(z, b.next_double()));
      }
    }
  }
}

TEST(Zipf, GuideTableIsLinearInN) {
  // A sampler is built per simulator run, so its build is one merge pass
  // over n indices and K buckets: K stays within 4 * bit_ceil(n), capped.
  for (const std::size_t n : {1u, 2u, 3u, 64u, 1000u, 1u << 20}) {
    const ZipfSampler z(n, 0.99);
    EXPECT_TRUE(std::has_single_bit(z.guide_buckets())) << n;
    EXPECT_LE(z.guide_buckets(), std::min<std::size_t>(4 * std::bit_ceil(n),
                                                       1u << 16))
        << n;
  }
}

TEST(Zipf, RejectsDegenerate) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace am
