// Edge-case behavior of the statistics toolkit: empty samples, one- and
// two-element samples, and degenerate runs. Every result here must be a
// well-defined finite number — never NaN, infinity or garbage — because
// these values flow straight into tables, CSVs and JSON reports.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_core/result.hpp"
#include "bench_core/sim_backend.hpp"
#include "bench_core/workload.hpp"
#include "common/stats.hpp"
#include "sim/config.hpp"
#include "sim/sim_stats.hpp"

namespace am {
namespace {

TEST(StatsEdge, PercentileEmptySampleIsZero) {
  const std::vector<double> none;
  for (double q : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile(none, q), 0.0) << "q=" << q;
  }
}

TEST(StatsEdge, PercentileSingleton) {
  const std::vector<double> one{42.0};
  for (double q : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile(one, q), 42.0) << "q=" << q;
  }
}

TEST(StatsEdge, PercentilePair) {
  const std::vector<double> two{10.0, 20.0};
  EXPECT_EQ(percentile(two, 0.0), 10.0);
  EXPECT_EQ(percentile(two, 50.0), 15.0);  // linear interpolation
  EXPECT_EQ(percentile(two, 100.0), 20.0);
  EXPECT_NEAR(percentile(two, 99.0), 19.9, 1e-9);
}

TEST(StatsEdge, PercentileOutOfRangeQClamps) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_EQ(percentile(v, -5.0), 1.0);
  EXPECT_EQ(percentile(v, 250.0), 3.0);
}

TEST(StatsEdge, SummarizeEmptyIsAllZeroFinite) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  for (double v : {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);
  }
}

TEST(StatsEdge, SummarizeSingleton) {
  const std::vector<double> one{7.5};
  const Summary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 7.5);
  EXPECT_EQ(s.stddev, 0.0);  // n-1 denominator must not divide by zero
  EXPECT_EQ(s.min, 7.5);
  EXPECT_EQ(s.max, 7.5);
  EXPECT_EQ(s.p50, 7.5);
  EXPECT_EQ(s.p99, 7.5);
}

TEST(StatsEdge, SummarizePair) {
  const std::vector<double> two{10.0, 14.0};
  const Summary s = summarize(two);
  EXPECT_EQ(s.mean, 12.0);
  EXPECT_NEAR(s.stddev, std::sqrt(8.0), 1e-12);  // sample stddev, n-1 = 1
  EXPECT_EQ(s.p50, 12.0);
}

TEST(StatsEdge, FairnessOnEmptyAndZeroShares) {
  const std::vector<double> none;
  const std::vector<double> zeros{0.0, 0.0, 0.0};
  EXPECT_EQ(jain_fairness(none), 1.0);
  EXPECT_EQ(jain_fairness(zeros), 1.0);
  EXPECT_EQ(min_max_ratio(none), 1.0);
  EXPECT_EQ(min_max_ratio(zeros), 1.0);
}

TEST(StatsEdge, MapeDegenerateInputs) {
  const std::vector<double> empty;
  EXPECT_EQ(mape(empty, empty), 0.0);
  // Mismatched lengths are refused, not partially evaluated.
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_EQ(mape(a, b), 0.0);
  // Zero reference points are skipped, not divided by.
  const std::vector<double> pred{5.0, 10.0};
  const std::vector<double> act{0.0, 10.0};
  EXPECT_EQ(mape(pred, act), 0.0);
  EXPECT_TRUE(std::isfinite(max_relative_error(pred, act)));
}

TEST(StatsEdge, LogHistogramEmpty) {
  const LogHistogram h(1.0, 1e6);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (double q : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.value_at_percentile(q), 0.0) << "q=" << q;
  }
}

TEST(StatsEdge, LogHistogramSingleSample) {
  LogHistogram h(1.0, 1e6, 8);
  h.add(100.0);
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.mean(), 100.0);
  EXPECT_EQ(h.observed_min(), 100.0);
  EXPECT_EQ(h.observed_max(), 100.0);
  // Every percentile lands in the one occupied bucket; bucket resolution
  // bounds the answer, so check the right decade rather than equality.
  for (double q : {0.0, 50.0, 99.0}) {
    const double v = h.value_at_percentile(q);
    EXPECT_GE(v, 50.0) << "q=" << q;
    EXPECT_LE(v, 200.0) << "q=" << q;
  }
}

TEST(StatsEdge, EmptyRunStatsMeansAreFinite) {
  const sim::RunStats empty;  // zero threads, zero window
  EXPECT_EQ(empty.total_ops(), 0u);
  EXPECT_EQ(empty.throughput_ops_per_kcycle(), 0.0);
  EXPECT_EQ(empty.throughput_mops(), 0.0);
  EXPECT_EQ(empty.mean_latency_cycles(), 0.0);
  EXPECT_EQ(empty.success_rate(), 1.0);  // vacuous success, not 0/0
  EXPECT_EQ(empty.jain_fairness_ops(), 1.0);
  EXPECT_EQ(empty.min_max_ops_ratio(), 1.0);
  EXPECT_EQ(empty.energy_per_op_nj(), 0.0);
}

TEST(StatsEdge, ZeroOpThreadStats) {
  const sim::ThreadStats idle;
  EXPECT_EQ(idle.mean_latency(), 0.0);
  EXPECT_EQ(idle.latency_hist.total_count(), 0u);
}

TEST(StatsEdge, EmptyMeasuredRunMeansAreFinite) {
  const bench::MeasuredRun empty;
  EXPECT_EQ(empty.throughput_ops_per_kcycle(), 0.0);
  EXPECT_EQ(empty.mean_latency_cycles(), 0.0);
  EXPECT_EQ(empty.success_rate(), 1.0);
  EXPECT_EQ(empty.attempts_per_op(), 1.0);
  EXPECT_EQ(empty.jain_fairness(), 1.0);
  EXPECT_EQ(empty.energy_per_op_nj(), 0.0);
}

TEST(StatsEdge, LatencyTailValidGatesP99) {
  // A thread with no completed ops must advertise an invalid tail, so
  // writers render n/a / null instead of a misleading 0-cycle p99.
  bench::ThreadResult idle;
  EXPECT_FALSE(idle.latency_tail_valid);
  bench::MeasuredRun run;
  run.threads.push_back(idle);
  run.duration_cycles = 1000.0;
  EXPECT_EQ(run.total_ops(), 0u);
  EXPECT_EQ(run.mean_latency_cycles(), 0.0);
}

TEST(StatsEdge, SimBackendMarksTailInvalidWhenNothingCompletes) {
  // A measurement window shorter than any operation's latency completes
  // zero ops; the backend must report an invalid latency tail (not p99=0)
  // and finite derived metrics.
  bench::SimBackendOptions opts;
  opts.warmup_cycles = 0;
  opts.measure_cycles = 2;
  bench::SimBackend backend(sim::test_machine(2), opts, /*seed=*/1);
  bench::WorkloadConfig w;
  w.mode = bench::WorkloadMode::kHighContention;
  w.prim = Primitive::kFaa;
  w.threads = 2;
  w.work = 0;
  w.seed = 1;
  const bench::MeasuredRun run = backend.run(w);
  EXPECT_EQ(run.total_ops(), 0u);
  for (const auto& t : run.threads) {
    EXPECT_FALSE(t.latency_tail_valid);
    EXPECT_EQ(t.p99_latency_cycles, 0.0);
  }
  EXPECT_TRUE(std::isfinite(run.throughput_ops_per_kcycle()));
  EXPECT_EQ(run.success_rate(), 1.0);
}

}  // namespace
}  // namespace am
