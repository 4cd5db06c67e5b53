#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/stats.hpp"

namespace am {
namespace {

TEST(Summary, BasicMoments) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Summary, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one{7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Summary, ConfidenceIntervalShrinksWithN) {
  std::vector<double> small(10, 0.0);
  std::vector<double> large(1000, 0.0);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = i % 2;
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i % 2;
  EXPECT_GT(summarize(small).ci95_halfwidth(),
            summarize(large).ci95_halfwidth());
}

TEST(Percentile, Interpolation) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 17.5);
}

TEST(Fairness, JainIndexExtremes) {
  const std::vector<double> equal{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(jain_fairness(equal), 1.0);
  const std::vector<double> monopoly{20, 0, 0, 0};
  EXPECT_DOUBLE_EQ(jain_fairness(monopoly), 0.25);  // 1/n
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(jain_fairness(empty), 1.0);
}

TEST(Fairness, JainIsScaleInvariant) {
  const std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b;
  for (double v : a) b.push_back(v * 1000.0);
  EXPECT_NEAR(jain_fairness(a), jain_fairness(b), 1e-12);
}

TEST(Fairness, MinMaxRatio) {
  const std::vector<double> v{2, 4, 8};
  EXPECT_DOUBLE_EQ(min_max_ratio(v), 0.25);
  const std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(min_max_ratio(zeros), 1.0);
}

TEST(LogHistogram, PercentilesRoughlyCorrect) {
  LogHistogram h(1.0, 1e6, 32);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.total_count(), 1000u);
  EXPECT_NEAR(h.value_at_percentile(50), 500.0, 500.0 * 0.1);
  EXPECT_NEAR(h.value_at_percentile(99), 990.0, 990.0 * 0.1);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);  // exact: mean tracked separately
}

TEST(LogHistogram, UnderflowOverflowBuckets) {
  LogHistogram h(10.0, 1000.0, 8);
  h.add(1.0);     // underflow
  h.add(1e9);     // overflow
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_DOUBLE_EQ(h.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 1e9);
}

TEST(LogHistogram, MergeAccumulates) {
  LogHistogram a(1.0, 1e4, 16);
  LogHistogram b(1.0, 1e4, 16);
  a.add(10);
  b.add(100);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 3u);
  EXPECT_DOUBLE_EQ(a.observed_max(), 1000.0);
}

TEST(LogHistogram, MergeRejectsIncompatible) {
  LogHistogram a(1.0, 1e4, 16);
  LogHistogram b(1.0, 1e4, 8);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LogHistogram, RejectsBadGeometry) {
  EXPECT_THROW(LogHistogram(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 5.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

LogHistogram cycle_histogram() {
  return LogHistogram(LogHistogram::kCycleLo, LogHistogram::kCycleHi,
                      LogHistogram::kCyclePerDecade);
}

TEST(LogHistogram, IntegerTableMatchesIndexFor) {
  // Every integer the table covers lands in index_for's bucket: after each
  // add, that bucket holds exactly the samples index_for assigned it.
  LogHistogram h = cycle_histogram();
  std::vector<std::uint64_t> want(h.bucket_count(), 0);
  for (std::uint32_t v = 0; v < LogHistogram::kIntTableBound; ++v) {
    const std::size_t idx = h.index_for(static_cast<double>(v));
    h.add(static_cast<double>(v));
    ASSERT_EQ(h.bucket(idx), ++want[idx]) << "value " << v;
  }
  EXPECT_EQ(h.total_count(), LogHistogram::kIntTableBound);
}

TEST(LogHistogram, ValuesOutsideTheTableKeepIndexFor) {
  // Past the bound, fractions, negatives and other geometries take the
  // memo and index_for path; repeats exercise the memo.
  const double bound = LogHistogram::kIntTableBound;
  const std::vector<double> values{
      bound,        bound + 1.0,   bound + 0.5, bound * 7.0,   1e7,
      1e9,          0.5,           1.5,         999.25,        -3.0,
      -0.5,         std::nextafter(bound, 0.0), 2.0 + 1e-9,    bound,
      1.5,          1e9,           -3.0,        1234567.0,     0.999};
  for (LogHistogram h : {cycle_histogram(), LogHistogram(1.0, 1e6, 16)}) {
    std::vector<std::uint64_t> want(h.bucket_count(), 0);
    for (const double v : values) {
      const std::size_t idx = h.index_for(v);
      h.add(v);
      ASSERT_EQ(h.bucket(idx), ++want[idx]) << "value " << v;
    }
  }
}

TEST(LogHistogram, ConcurrentAddsUnderTsan) {
  // Two threads build cycle-geometry histograms and add samples at once.
  // Run alone (--gtest_filter=LogHistogram.ConcurrentAddsUnderTsan) in a
  // -fsanitize=thread build, they race to fill the shared table first.
  // Samples span the table's bound, so both paths run.
  constexpr std::uint32_t kSamples = 50'000;
  const auto sample = [](std::uint32_t i, std::uint32_t t) {
    return static_cast<double>((i * 2654435761u + t) % 20'000);
  };
  std::vector<std::vector<std::uint64_t>> got(2);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&got, &sample, t] {
      LogHistogram h = cycle_histogram();
      for (std::uint32_t i = 0; i < kSamples; ++i) h.add(sample(i, t));
      for (std::size_t b = 0; b < h.bucket_count(); ++b) {
        got[t].push_back(h.bucket(b));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const LogHistogram geometry = cycle_histogram();
  for (std::uint32_t t = 0; t < 2; ++t) {
    std::vector<std::uint64_t> want(geometry.bucket_count(), 0);
    for (std::uint32_t i = 0; i < kSamples; ++i) {
      ++want[geometry.index_for(sample(i, t))];
    }
    EXPECT_EQ(got[t], want) << "thread " << t;
  }
}

TEST(LeastSquares, ExactLinearFit) {
  // y = 3 + 2x, noise-free.
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 + 2.0 * xi);
  const LeastSquaresFit fit = linear_regression(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.coefficients[0], 3.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LeastSquares, TwoRegressors) {
  // y = 5a + 7b over a small design.
  std::vector<std::vector<double>> rows{{1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 3}};
  std::vector<double> y;
  for (const auto& r : rows) y.push_back(5.0 * r[0] + 7.0 * r[1]);
  const LeastSquaresFit fit = least_squares(rows, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.coefficients[0], 5.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], 7.0, 1e-9);
}

TEST(LeastSquares, SingularDesignFails) {
  // Two identical columns: unidentifiable.
  std::vector<std::vector<double>> rows{{1, 1}, {2, 2}, {3, 3}};
  std::vector<double> y{2, 4, 6};
  EXPECT_FALSE(least_squares(rows, y).ok);
}

TEST(LeastSquares, MismatchedSizesFail) {
  std::vector<std::vector<double>> rows{{1}, {2}};
  std::vector<double> y{1};
  EXPECT_FALSE(least_squares(rows, y).ok);
}

TEST(ErrorMetrics, MapeAndMaxError) {
  const std::vector<double> actual{100, 200, 0};
  const std::vector<double> pred{110, 180, 50};
  // Zero actual skipped: errors 10% and 10%.
  EXPECT_NEAR(mape(pred, actual), 0.1, 1e-12);
  EXPECT_NEAR(max_relative_error(pred, actual), 0.1, 1e-12);
}

TEST(ErrorMetrics, GeometricMean) {
  const std::vector<double> v{1, 10, 100};
  EXPECT_NEAR(geometric_mean(v), 10.0, 1e-9);
  const std::vector<double> with_zero{1, 0};
  EXPECT_DOUBLE_EQ(geometric_mean(with_zero), 0.0);
}

TEST(CoefficientOfVariation, Basics) {
  const std::vector<double> constant{5, 5, 5};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(constant), 0.0);
  const std::vector<double> spread{1, 9};
  EXPECT_GT(coefficient_of_variation(spread), 0.5);
}

}  // namespace
}  // namespace am
