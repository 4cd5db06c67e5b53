// Regression tests for the event-loop assumptions a scheduler rewrite must
// keep: same-time FIFO dispatch, watchdog timing, and deterministic
// invariant reporting.
//
// The seed core leaned on two properties of its std::priority_queue that a
// replacement scheduler could silently weaken:
//   1. Events at equal times dispatch in schedule() order (the seq
//      tie-break). Grant/retry interleavings — and therefore every stat —
//      depend on it.
//   2. The watchdog counts *dispatched events* between progress marks, so
//      "when a PointTimeout fires" (kind, cycle, event count) is part of
//      observable behaviour even though timed-out runs are discarded.
// The expected values below are the ones the seed core and the fast-path
// core both produced when the two were last compared side by side.
// A third was a latent nondeterminism, not an assumption: the seed core's
// verify_invariants() walked an unordered_map, so with several lines
// simultaneously corrupted the *reported* line varied by hash layout. The
// fast-path core checks lines in ascending id order; the last test pins
// that.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

MachineConfig tiny() { return test_machine(4, 100, 4, 200); }

/// Runs @p prog with the given watchdog and returns the PointTimeout it must
/// raise.
PointTimeout expect_timeout(WatchdogConfig wd, ThreadProgram& prog) {
  Machine m(tiny(), 1);
  m.set_watchdog(wd);
  try {
    m.run(prog, 4, 1'000, 10'000);
  } catch (const PointTimeout& e) {
    return e;
  }
  throw std::logic_error("expected PointTimeout");
}

TEST(QueueAssumptions, CycleBudgetTimeoutIsPinned) {
  // The budget check runs after each pop, so *which* event first carries
  // now_ past the budget — and how many events were dispatched by then —
  // depends entirely on dispatch order. Equal fields here mean the
  // scheduler dispatches the same event stream as the seed scheduler right
  // up to the abort.
  const WatchdogConfig wd{/*max_cycles=*/50, /*progress_events=*/0};
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  const PointTimeout t = expect_timeout(wd, prog);
  EXPECT_EQ(t.kind, PointTimeout::Kind::kCycleBudget);
  EXPECT_EQ(t.at_cycle, 214u);
  EXPECT_EQ(t.events_processed, 8u);
}

TEST(QueueAssumptions, NoProgressTimeoutIsPinned) {
  // progress_events=1 trips on the very first dispatched event (a fetch,
  // which must NOT count as progress — only grants and retirements do).
  const WatchdogConfig wd{/*max_cycles=*/0, /*progress_events=*/1};
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  const PointTimeout t = expect_timeout(wd, prog);
  EXPECT_EQ(t.kind, PointTimeout::Kind::kNoProgress);
  EXPECT_EQ(t.at_cycle, 0u);
  EXPECT_EQ(t.events_processed, 1u);
}

TEST(QueueAssumptions, SameTimeBurstIsFifoAcrossCores) {
  // work=0 puts every core's fetch, issue and (for local hits) done events
  // at shared timestamps all run long; any tie-break deviation reshuffles
  // grants and shows up in per-core ops/attempts immediately.
  struct Tally {
    std::uint64_t ops, attempts, wait_cycles;
  };
  constexpr Tally kExpected[] = {
      {9, 9, 3736}, {9, 9, 3850}, {8, 8, 3522}, {8, 8, 3636}};
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  Machine m(tiny(), 11);
  const RunStats rs = m.run(prog, 4, 0, 4'000);
  ASSERT_EQ(rs.threads.size(), std::size(kExpected));
  for (std::size_t i = 0; i < rs.threads.size(); ++i) {
    EXPECT_EQ(rs.threads[i].ops, kExpected[i].ops) << "core " << i;
    EXPECT_EQ(rs.threads[i].attempts, kExpected[i].attempts) << "core " << i;
    EXPECT_EQ(rs.threads[i].wait_cycles, kExpected[i].wait_cycles)
        << "core " << i;
  }
  EXPECT_EQ(rs.invalidations, 34u);
}

TEST(QueueAssumptions, RepeatRunsAreIdentical) {
  // Determinism of the new scheduler end-to-end: same seed, same program,
  // same machine type -> identical per-core tallies.
  auto digest = [] {
    Machine m(tiny(), 3);
    HighContentionProgram prog(Primitive::kCasLoop, 0, 0, 0.0);
    const RunStats rs = m.run(prog, 4, 500, 5'000);
    std::string out;
    for (const ThreadStats& t : rs.threads) {
      out += std::to_string(t.ops) + ':' + std::to_string(t.attempts) + ':' +
             std::to_string(t.wait_cycles) + ';';
    }
    return out;
  };
  EXPECT_EQ(digest(), digest());
}

TEST(QueueAssumptions, InvariantReportNamesLowestLine) {
  // Corrupt two lines with the kSkipSharedInvalidate fault (an S->M upgrade
  // that leaves the other sharer's copy alive) and check the report is
  // stable: the fast-path core scans lines in ascending id order, so the
  // lower line id is always the one named.
  MachineConfig cfg = tiny();
  cfg.fault = FaultInjection::kSkipSharedInvalidate;
  Machine m(cfg, 1);

  // Core 1 reads both lines (sole reader -> E)...
  {
    IssueRequest load5;
    load5.prim = Primitive::kLoad;
    load5.line = 5;
    IssueRequest load9 = load5;
    load9.line = 9;
    ScriptProgram reader(1, {load5, load9});
    m.run(reader, 2, 0, Cycles{1} << 30);
  }
  // ...then core 0 reads each line (E -> S+S) and upgrades it with FAA; the
  // fault leaves core 1's shared copy next to core 0's ownership.
  {
    IssueRequest load5;
    load5.prim = Primitive::kLoad;
    load5.line = 5;
    IssueRequest faa5;
    faa5.prim = Primitive::kFaa;
    faa5.line = 5;
    IssueRequest load9 = load5;
    load9.line = 9;
    IssueRequest faa9 = faa5;
    faa9.line = 9;
    ScriptProgram writer(0, {load5, faa5, load9, faa9});
    m.run(writer, 2, 0, Cycles{1} << 30);
  }

  ASSERT_EQ(m.line_state(5, 1), Mesi::kShared) << "fault did not arm";
  ASSERT_EQ(m.line_state(9, 1), Mesi::kShared) << "fault did not arm";
  try {
    m.verify_invariants();
    FAIL() << "two corrupted lines passed verify_invariants";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << "expected the lowest corrupted line (5) to be reported, got: "
        << e.what();
  }
}

}  // namespace
}  // namespace am::sim
