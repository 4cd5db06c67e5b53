// Watchdog contract: a machine with a cycle budget or progress requirement
// raises a structured PointTimeout instead of running (or spinning) forever,
// and an armed-but-generous watchdog never perturbs results.
#include <gtest/gtest.h>

#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

MachineConfig tiny() { return test_machine(4, 100, 4, 200); }

TEST(Watchdog, CycleBudgetRaisesStructuredTimeout) {
  Machine m(tiny(), 1);
  m.set_watchdog(WatchdogConfig{/*max_cycles=*/50, /*progress_events=*/0});
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  try {
    m.run(prog, 4, 1'000, 10'000);
    FAIL() << "run() outlived a 50-cycle budget without PointTimeout";
  } catch (const PointTimeout& e) {
    EXPECT_EQ(e.kind, PointTimeout::Kind::kCycleBudget);
    EXPECT_GT(e.at_cycle, 50u);
    EXPECT_NE(std::string(e.what()).find("cycle budget"), std::string::npos);
    // The aborted run's dispatch count is published on the timeout path too.
    EXPECT_EQ(m.events_dispatched(), e.events_processed);
  }
}

TEST(Watchdog, NoProgressRaisesLivelockTimeout) {
  Machine m(tiny(), 1);
  // One event without a grant or retirement counts as stuck: the very first
  // fetch event trips it, which is exactly what this test wants — the
  // detector fires without needing a contrived real livelock.
  m.set_watchdog(WatchdogConfig{/*max_cycles=*/0, /*progress_events=*/1});
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  try {
    m.run(prog, 4, 1'000, 10'000);
    FAIL() << "run() made no progress marks yet never timed out";
  } catch (const PointTimeout& e) {
    EXPECT_EQ(e.kind, PointTimeout::Kind::kNoProgress);
    EXPECT_NE(std::string(e.what()).find("no forward progress"),
              std::string::npos);
  }
}

TEST(Watchdog, GenerousBudgetDoesNotPerturbResults) {
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  Machine plain(tiny(), 7);
  const RunStats base = plain.run(prog, 4, 1'000, 10'000);

  Machine watched(tiny(), 7);
  watched.set_watchdog(
      WatchdogConfig{/*max_cycles=*/100'000'000, /*progress_events=*/1'000'000});
  const RunStats guarded = watched.run(prog, 4, 1'000, 10'000);

  ASSERT_EQ(base.threads.size(), guarded.threads.size());
  for (std::size_t i = 0; i < base.threads.size(); ++i) {
    EXPECT_EQ(base.threads[i].ops, guarded.threads[i].ops) << "core " << i;
    EXPECT_EQ(base.threads[i].attempts, guarded.threads[i].attempts);
  }
  EXPECT_EQ(base.invalidations, guarded.invalidations);
  EXPECT_GT(plain.events_dispatched(), plain.ops_retired());
  EXPECT_EQ(plain.events_dispatched(), watched.events_dispatched());
  EXPECT_EQ(plain.ops_retired(), watched.ops_retired());
}

TEST(Watchdog, DisabledByDefault) {
  Machine m(tiny(), 1);
  EXPECT_EQ(m.watchdog().max_cycles, 0u);
  EXPECT_EQ(m.watchdog().progress_events, 0u);
  // A default machine runs unbounded workloads to completion as before.
  HighContentionProgram prog(Primitive::kFaa, 0, 0, 0.0);
  const RunStats stats = m.run(prog, 2, 500, 2'000);
  EXPECT_GT(stats.threads.at(0).ops, 0u);
}

}  // namespace
}  // namespace am::sim
