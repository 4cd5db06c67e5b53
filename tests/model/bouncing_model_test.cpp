#include <gtest/gtest.h>

#include <type_traits>

#include "model/bouncing_model.hpp"
#include "sim/config.hpp"

namespace am::model {
namespace {

// A model is built once per machine and kept in maps, so it must move; its
// memo is shared state, so it must not copy.
static_assert(std::is_nothrow_move_constructible_v<BouncingModel>);
static_assert(!std::is_copy_constructible_v<BouncingModel>);

BouncingModel test_model(sim::CoreId cores = 8) {
  return BouncingModel(ModelParams::from_machine(sim::test_machine(cores)));
}

TEST(Predict, SingleThreadIsLocalCost) {
  const BouncingModel m = test_model();
  const Prediction p = m.predict(Primitive::kFaa, 1, 0.0);
  const double c = m.params().local_op_cycles(Primitive::kFaa);
  EXPECT_DOUBLE_EQ(p.latency_cycles, c);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 1000.0 / c);
  EXPECT_EQ(p.regime, Regime::kLowContention);
}

TEST(Predict, SaturatedThroughputIsOneOverHold) {
  const BouncingModel m = test_model();
  const Prediction p = m.predict(Primitive::kFaa, 4, 0.0);
  // test machine: T=100, l1=4, exec=10 -> hold=114.
  EXPECT_DOUBLE_EQ(p.hold_cycles, 114.0);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 1000.0 / 114.0);
  EXPECT_EQ(p.regime, Regime::kHighContention);
  EXPECT_DOUBLE_EQ(p.latency_cycles, 4.0 * 114.0);
}

TEST(Predict, ThroughputPlateauAcrossN) {
  const BouncingModel m = test_model();
  const double x4 = m.predict(Primitive::kFaa, 4, 0.0).throughput_ops_per_kcycle;
  const double x8 = m.predict(Primitive::kFaa, 8, 0.0).throughput_ops_per_kcycle;
  EXPECT_DOUBLE_EQ(x4, x8);
}

TEST(Predict, LatencyLinearInN) {
  const BouncingModel m = test_model();
  const double l4 = m.predict(Primitive::kFaa, 4, 0.0).latency_cycles;
  const double l8 = m.predict(Primitive::kFaa, 8, 0.0).latency_cycles;
  EXPECT_DOUBLE_EQ(l8, 2.0 * l4);
}

TEST(Predict, CrossoverSeparatesRegimes) {
  const BouncingModel m = test_model();
  const double wstar = m.crossover_work(Primitive::kFaa, 4);
  EXPECT_DOUBLE_EQ(wstar, 3.0 * 114.0);
  EXPECT_EQ(m.predict(Primitive::kFaa, 4, wstar * 0.9).regime,
            Regime::kHighContention);
  EXPECT_EQ(m.predict(Primitive::kFaa, 4, wstar * 1.1).regime,
            Regime::kLowContention);
}

TEST(Predict, WorkBoundThroughputBeyondCrossover) {
  const BouncingModel m = test_model();
  const double w = 10'000.0;
  const Prediction p = m.predict(Primitive::kFaa, 4, w);
  EXPECT_NEAR(p.throughput_ops_per_kcycle, 4.0 * 1000.0 / (w + 114.0), 1e-9);
  EXPECT_DOUBLE_EQ(p.latency_cycles, 114.0);
}

TEST(Predict, LoadNeverBounces) {
  const BouncingModel m = test_model();
  const Prediction p = m.predict(Primitive::kLoad, 8, 0.0);
  EXPECT_EQ(p.regime, Regime::kLowContention);
  const double c = m.params().local_op_cycles(Primitive::kLoad);
  EXPECT_DOUBLE_EQ(p.latency_cycles, c);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 8.0 * 1000.0 / c);
}

// LOAD and single-thread points never move the line, so they are priced
// from the local cost alone, with no hand-off evaluation: a LOAD count
// beyond the machine's cores and a zero thread count both answer.
TEST(Predict, NoTransferPointsNeedNoHandoff) {
  const BouncingModel m(ModelParams::from_machine(sim::xeon_e5_2x18()));
  const double c_load = m.params().local_op_cycles(Primitive::kLoad);
  Prediction p;
  ASSERT_NO_THROW(p = m.predict(Primitive::kLoad, 40, 100.0));
  EXPECT_DOUBLE_EQ(p.latency_cycles, c_load);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle,
                   40.0 * 1000.0 / (100.0 + c_load));
  EXPECT_DOUBLE_EQ(p.mean_transfer_cycles, 0.0);
  EXPECT_GT(p.energy_per_op_nj, 0.0);

  ASSERT_NO_THROW(p = m.predict(Primitive::kFaa, 0, 0.0));
  EXPECT_DOUBLE_EQ(p.latency_cycles,
                   m.params().local_op_cycles(Primitive::kFaa));
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 0.0);

  EXPECT_DOUBLE_EQ(m.mean_transfer(0), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_transfer(1), 0.0);
}

TEST(Predict, CasSuccessDropsWithN) {
  const BouncingModel m = test_model();
  EXPECT_DOUBLE_EQ(m.predict(Primitive::kCas, 4, 0.0).success_rate, 0.25);
  EXPECT_DOUBLE_EQ(m.predict(Primitive::kCas, 8, 0.0).success_rate, 0.125);
}

TEST(Predict, CasLoopPaysNAcquisitions) {
  const BouncingModel m = test_model();
  const Prediction faa = m.predict(Primitive::kFaa, 8, 0.0);
  const Prediction loop = m.predict(Primitive::kCasLoop, 8, 0.0);
  EXPECT_DOUBLE_EQ(loop.attempts_per_op, 8.0);
  EXPECT_NEAR(faa.throughput_ops_per_kcycle /
                  loop.throughput_ops_per_kcycle,
              8.0, 1e-9);
  EXPECT_LT(loop.fairness_jain, 0.2);  // winner-takes-all under FIFO
}

TEST(Predict, FairnessFifoPerfectForFaa) {
  const BouncingModel m = test_model();
  EXPECT_DOUBLE_EQ(m.predict(Primitive::kFaa, 8, 0.0).fairness_jain, 1.0);
}

TEST(Predict, ProximityBiasLowersFairness) {
  const BouncingModel m(ModelParams::from_machine(sim::xeon_e5_2x18()));
  const Prediction p = m.predict(Primitive::kFaa, 36, 0.0);
  EXPECT_LT(p.fairness_jain, 0.999);
  EXPECT_GT(p.fairness_jain, 0.3);
}

TEST(Predict, EnergyPerOpGrowsWithN) {
  const BouncingModel m(ModelParams::from_machine(sim::xeon_e5_2x18()));
  const double e2 = m.predict(Primitive::kFaa, 2, 0.0).energy_per_op_nj;
  const double e32 = m.predict(Primitive::kFaa, 32, 0.0).energy_per_op_nj;
  EXPECT_GT(e32, 4.0 * e2);
}

TEST(PredictPrivate, ScalesLinearly) {
  const BouncingModel m = test_model();
  const Prediction p1 = m.predict_private(Primitive::kFaa, 1, 0.0);
  const Prediction p8 = m.predict_private(Primitive::kFaa, 8, 0.0);
  EXPECT_DOUBLE_EQ(p8.throughput_ops_per_kcycle,
                   8.0 * p1.throughput_ops_per_kcycle);
  EXPECT_DOUBLE_EQ(p8.latency_cycles, p1.latency_cycles);
}

TEST(SingleOpLatency, MatchesSupplyClasses) {
  const BouncingModel m = test_model();
  const double c = m.params().local_op_cycles(Primitive::kFaa);
  EXPECT_DOUBLE_EQ(m.single_op_latency(Primitive::kFaa, sim::Supply::kLocalHit, 0),
                   c);
  EXPECT_DOUBLE_EQ(m.single_op_latency(Primitive::kFaa, sim::Supply::kNear, 100),
                   100 + c);
  EXPECT_DOUBLE_EQ(
      m.single_op_latency(Primitive::kFaa, sim::Supply::kMemory, 0),
      m.params().memory_fill + c);
}

TEST(Regime, NamesForTables) {
  EXPECT_STREQ(to_string(Regime::kHighContention), "high-contention");
  EXPECT_STREQ(to_string(Regime::kLowContention), "low-contention");
}

}  // namespace
}  // namespace am::model
