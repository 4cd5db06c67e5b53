// Core invariants of the coherence machine: single-op latencies by line
// state, serialization of RMWs, concurrent LOAD scaling, invalidation
// bookkeeping, and determinism.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

constexpr Cycles kXfer = 100;
constexpr Cycles kL1 = 4;
constexpr Cycles kMem = 200;

MachineConfig tiny(CoreId cores = 4) { return test_machine(cores, kXfer, kL1, kMem); }

Cycles exec_of(const MachineConfig& c, Primitive p) { return c.exec_cost_of(p); }

TEST(MachineSingleOp, MemoryFillForColdLine) {
  Machine m(tiny());
  // Line 7 cached nowhere: FAA pays memory fill + L1 + exec.
  const Cycles lat = m.measure_single_op(0, Primitive::kFaa, 7);
  EXPECT_EQ(lat, kMem + kL1 + exec_of(tiny(), Primitive::kFaa));
}

TEST(MachineSingleOp, LocalHitWhenLineModifiedLocally) {
  Machine m(tiny());
  m.prime_line(7, Mesi::kModified, 0, 5);
  const Cycles lat = m.measure_single_op(0, Primitive::kFaa, 7);
  EXPECT_EQ(lat, kL1 + exec_of(tiny(), Primitive::kFaa));
  EXPECT_EQ(m.line_value(7), 6u);
}

TEST(MachineSingleOp, LocalHitWhenLineExclusiveLocally) {
  Machine m(tiny());
  m.prime_line(7, Mesi::kExclusive, 0, 0);
  const Cycles lat = m.measure_single_op(0, Primitive::kSwap, 7);
  EXPECT_EQ(lat, kL1 + exec_of(tiny(), Primitive::kSwap));
}

TEST(MachineSingleOp, TransferWhenLineModifiedRemotely) {
  Machine m(tiny());
  m.prime_line(7, Mesi::kModified, 1, 0);
  const Cycles lat = m.measure_single_op(0, Primitive::kFaa, 7);
  EXPECT_EQ(lat, kXfer + kL1 + exec_of(tiny(), Primitive::kFaa));
  // Ownership moved: a second op by core 0 is a local hit.
  const Cycles lat2 = m.measure_single_op(0, Primitive::kFaa, 7);
  EXPECT_EQ(lat2, kL1 + exec_of(tiny(), Primitive::kFaa));
  EXPECT_EQ(m.line_state(7, 1), Mesi::kInvalid);
  EXPECT_EQ(m.line_state(7, 0), Mesi::kModified);
}

TEST(MachineSingleOp, LoadOnSharedCopyIsLocal) {
  Machine m(tiny());
  m.prime_line(7, Mesi::kShared, 0, 42);
  const Cycles lat = m.measure_single_op(0, Primitive::kLoad, 7);
  EXPECT_EQ(lat, kL1 + exec_of(tiny(), Primitive::kLoad));
}

TEST(MachineSingleOp, StoreOnSharedCopyNeedsUpgrade) {
  Machine m(tiny());
  m.prime_line(7, Mesi::kShared, 0, 42);
  const Cycles lat = m.measure_single_op(0, Primitive::kStore, 7);
  // Upgrade from Shared uses the shared-supply path, not a full transfer.
  EXPECT_EQ(lat, tiny().shared_supply + kL1 + exec_of(tiny(), Primitive::kStore));
  EXPECT_EQ(m.line_state(7, 0), Mesi::kModified);
}

TEST(MachineSingleOp, LoadFromRemoteModifiedDowngradesOwner) {
  Machine m(tiny());
  m.prime_line(7, Mesi::kModified, 1, 9);
  const Cycles lat = m.measure_single_op(0, Primitive::kLoad, 7);
  EXPECT_EQ(lat, kXfer + kL1 + exec_of(tiny(), Primitive::kLoad));
  EXPECT_EQ(m.line_state(7, 0), Mesi::kShared);
  EXPECT_EQ(m.line_state(7, 1), Mesi::kShared);
}

TEST(MachineSingleOp, SoleLoadFromMemoryGetsExclusive) {
  Machine m(tiny());
  const Cycles lat = m.measure_single_op(0, Primitive::kLoad, 7);
  EXPECT_EQ(lat, kMem + kL1 + exec_of(tiny(), Primitive::kLoad));
  EXPECT_EQ(m.line_state(7, 0), Mesi::kExclusive);
}

TEST(MachineRun, SingleCoreFaaThroughputIsLocalCost) {
  Machine m(tiny());
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats st = m.run(prog, 1, 10'000, 100'000);
  const double per_op = kL1 + exec_of(tiny(), Primitive::kFaa);
  const double expected_ops = 100'000.0 / per_op;
  EXPECT_NEAR(static_cast<double>(st.total_ops()), expected_ops,
              expected_ops * 0.01);
  EXPECT_NEAR(st.mean_latency_cycles(), per_op, 0.5);
}

TEST(MachineRun, TwoCoreFaaSerializesOnHandoffs) {
  Machine m(tiny(2));
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats st = m.run(prog, 2, 20'000, 200'000);
  // Steady state: every op needs a transfer: hold = xfer + l1 + exec.
  const double hold = kXfer + kL1 + exec_of(tiny(), Primitive::kFaa);
  const double expected_ops = 200'000.0 / hold;
  EXPECT_NEAR(static_cast<double>(st.total_ops()), expected_ops,
              expected_ops * 0.02);
  // FIFO hand-offs: both cores complete the same number of ops (+-1 edge).
  EXPECT_NEAR(static_cast<double>(st.threads[0].ops),
              static_cast<double>(st.threads[1].ops), 2.0);
}

TEST(MachineRun, ThroughputPlateausBeyondTwoCores) {
  // The signature result: RMW throughput on a shared line does not scale.
  double tput[3] = {0, 0, 0};
  int i = 0;
  for (CoreId n : {2u, 4u, 8u}) {
    Machine m(tiny(8));
    HighContentionProgram prog(Primitive::kFaa, 0);
    const RunStats st = m.run(prog, n, 20'000, 200'000);
    tput[i++] = st.throughput_ops_per_kcycle();
  }
  EXPECT_NEAR(tput[1], tput[0], tput[0] * 0.05);
  EXPECT_NEAR(tput[2], tput[0], tput[0] * 0.05);
}

TEST(MachineRun, LoadsScaleOnSharedLine) {
  Machine m(tiny(8));
  HighContentionProgram prog(Primitive::kLoad, 0);
  const RunStats st = m.run(prog, 8, 20'000, 100'000);
  // After warmup everyone holds a Shared copy: throughput ~ 8 / (l1+exec).
  const double per_op = kL1 + exec_of(tiny(), Primitive::kLoad);
  const double expected = 8.0 * 1000.0 / per_op;
  EXPECT_NEAR(st.throughput_ops_per_kcycle(), expected, expected * 0.02);
}

TEST(MachineRun, PerOpLatencyGrowsLinearlyWithCores) {
  double lat4 = 0.0;
  double lat8 = 0.0;
  {
    Machine m(tiny(8));
    HighContentionProgram prog(Primitive::kFaa, 0);
    lat4 = m.run(prog, 4, 20'000, 200'000).mean_latency_cycles();
  }
  {
    Machine m(tiny(8));
    HighContentionProgram prog(Primitive::kFaa, 0);
    lat8 = m.run(prog, 8, 20'000, 200'000).mean_latency_cycles();
  }
  EXPECT_NEAR(lat8 / lat4, 2.0, 0.15);
}

TEST(MachineRun, PrivateLinesDoNotInterfere) {
  Machine m(tiny(4));
  LowContentionProgram prog(Primitive::kFaa, 0);
  const RunStats st = m.run(prog, 4, 10'000, 100'000);
  const double per_op = kL1 + exec_of(tiny(), Primitive::kFaa);
  const double expected = 4.0 * 1000.0 / per_op;
  EXPECT_NEAR(st.throughput_ops_per_kcycle(), expected, expected * 0.02);
  EXPECT_EQ(st.transfers[static_cast<int>(Supply::kNear)], 0u);
  EXPECT_EQ(st.transfers[static_cast<int>(Supply::kFar)], 0u);
}

TEST(MachineRun, ValueMatchesCompletedIncrements) {
  Machine m(tiny(4));
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats st = m.run(prog, 4, 0, 50'000);
  // Every completed FAA increments line 0 by 1; ops counted over the whole
  // run here because warmup == 0 (plus possibly in-flight stragglers).
  EXPECT_GE(m.line_value(0), st.total_ops());
  EXPECT_LE(m.line_value(0), st.total_ops() + 4);
}

TEST(MachineRun, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Machine m(xeon_e5_2x18(), 7);
    HighContentionProgram prog(Primitive::kCas, 50);
    const RunStats st = m.run(prog, 16, 10'000, 100'000);
    return std::tuple(st.total_ops(), st.total_successes(),
                      st.mean_latency_cycles());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MachineRun, InvalidationsTrackOwnershipChanges) {
  Machine m(tiny(2));
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats st = m.run(prog, 2, 0, 50'000);
  // Every hand-off invalidates exactly one copy (the previous owner).
  const auto handoffs = st.transfers[static_cast<int>(Supply::kNear)];
  EXPECT_NEAR(static_cast<double>(st.invalidations),
              static_cast<double>(handoffs), 3.0);
}

TEST(MachineRun, RejectsMoreCoresThanMachineHas) {
  Machine m(tiny(2));
  HighContentionProgram prog(Primitive::kFaa, 0);
  EXPECT_THROW(m.run(prog, 3, 0, 1000), std::invalid_argument);
}

TEST(MachineRun, WorkDelaysReduceContention) {
  // With work >> (n-1)*hold the system leaves the saturated regime and
  // throughput is work-bound: X = n / (work + hold).
  const Cycles work = 4000;
  Machine m(tiny(4));
  HighContentionProgram prog(Primitive::kFaa, work);
  const RunStats st = m.run(prog, 4, 50'000, 400'000);
  const double hold = kXfer + kL1 + exec_of(tiny(), Primitive::kFaa);
  const double expected = 4.0 * 1000.0 / (static_cast<double>(work) + hold);
  EXPECT_NEAR(st.throughput_ops_per_kcycle(), expected, expected * 0.1);
}

TEST(MachineRun, OneCoreRunsCompletionAndFetchInline) {
  // One core, no think time: nothing else is ever queued, so a retirement's
  // fetch and a local-hit issue's completion are strictly earliest and run
  // inline. Only the first op misses (a memory fill); each op takes a
  // fetch, an issue and a completion, and one more fetch ends the core.
  Machine m(tiny());
  HighContentionProgram prog(Primitive::kFaa, 0);
  m.run(prog, 1, 1'000, 10'000);
  const std::uint64_t ops = m.ops_retired();
  ASSERT_GT(ops, 1u);
  EXPECT_EQ(m.events_dispatched(), 3 * ops + 1);
  EXPECT_EQ(m.events_inlined(), 2 * ops - 1);
}

// The hot-line FAA stream of one core, failing on its fourth fetch.
class FailsOnFourthFetch : public ThreadProgram {
 public:
  std::optional<IssueRequest> next_op(CoreId core, Xoshiro256& rng) override {
    if (++fetches_ == 4) throw std::runtime_error("op stream failed");
    return inner_.next_op(core, rng);
  }

 private:
  HighContentionProgram inner_{Primitive::kFaa, 0};
  int fetches_ = 0;
};

TEST(MachineRun, InlinedCountLeavesOutAnEventWhoseHandlerThrew) {
  // The fourth fetch is taken from the inline slot after the third op
  // retires, and its handler throws: it was never dispatched, so neither
  // count has it. Dispatched: three fetch, issue, completion triples; run
  // inline: the fetches after the first two retirements and the two
  // local-hit completions.
  Machine m(tiny());
  FailsOnFourthFetch prog;
  EXPECT_THROW(m.run(prog, 1, 1'000, 10'000), std::runtime_error);
  EXPECT_EQ(m.events_dispatched(), 9u);
  EXPECT_EQ(m.events_inlined(), 4u);
}

TEST(MachineRun, LockstepPrivateLinesRunNothingInline) {
  // Private lines in lockstep: each core's next event ties with the other
  // cores' events at the same cycle, and a tie goes to the queued event's
  // older seq, so every event is pushed and popped.
  Machine m(tiny(4));
  LowContentionProgram prog(Primitive::kFaa, 0);
  m.run(prog, 4, 1'000, 10'000);
  EXPECT_GT(m.events_dispatched(), 0u);
  EXPECT_EQ(m.events_inlined(), 0u);
}

}  // namespace
}  // namespace am::sim
