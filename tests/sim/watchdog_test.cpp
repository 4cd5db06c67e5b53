// Watchdog contract: a machine with a cycle budget or progress requirement
// raises a structured PointTimeout instead of running (or spinning) forever,
// and an armed-but-generous watchdog never perturbs results.
#include <gtest/gtest.h>

#include <memory>
#include <string>

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

// Pinned timeouts on the randomized sharing modes and a hot line, on both
// presets (seed 7, 1,000 warm-up and 20,000 measured cycles). A timeout's
// message reaches served bytes, so what() and the counts are pinned exactly.
struct PinPoint {
  const char* label;
  const char* preset;
  CoreId threads;
  std::unique_ptr<ThreadProgram> (*make)();
};

std::unique_ptr<ThreadProgram> mixed_cas() {
  return std::make_unique<MixedReadWriteProgram>(Primitive::kCas, 0.1, 20);
}
std::unique_ptr<ThreadProgram> zipf_casloop() {
  return std::make_unique<ZipfSharingProgram>(Primitive::kCasLoop, 20, 64,
                                              0.99);
}
// One core with no think time: after the first op every op is a local hit,
// and its fetch, issue and completion follow each other with nothing queued.
std::unique_ptr<ThreadProgram> hc_faa() {
  return std::make_unique<HighContentionProgram>(Primitive::kFaa, 0);
}

constexpr PinPoint kPinPoints[] = {
    {"mixed_cas_t2", "xeon", 2, mixed_cas},
    {"zipf_casloop_t4", "xeon", 4, zipf_casloop},
    {"hc_faa_t1", "xeon", 1, hc_faa},
    {"mixed_cas_t2", "knl", 2, mixed_cas},
    {"zipf_casloop_t4", "knl", 4, zipf_casloop},
    {"hc_faa_t1", "knl", 1, hc_faa},
};

struct PinnedTimeout {
  WatchdogConfig watchdog;
  const char* what;
  std::uint64_t events;  ///< events_dispatched() == events_processed
  std::uint64_t ops;     ///< ops_retired()
};

/// Returns the timed-out run's events_inlined().
std::uint64_t expect_pinned(const PinPoint& p, const PinnedTimeout& want) {
  const std::string where = std::string(p.label) + " on " + p.preset;
  Machine m(preset_by_name(p.preset), 7);
  m.set_watchdog(want.watchdog);
  const auto prog = p.make();
  try {
    m.run(*prog, p.threads, 1'000, 20'000);
    ADD_FAILURE() << where << " ran to completion";
  } catch (const PointTimeout& e) {
    EXPECT_STREQ(e.what(), want.what) << where;
    EXPECT_EQ(e.events_processed, want.events) << where;
    EXPECT_EQ(m.events_dispatched(), want.events) << where;
    EXPECT_EQ(m.ops_retired(), want.ops) << where;
  }
  EXPECT_LE(m.events_inlined(), m.events_dispatched()) << where;
  return m.events_inlined();
}

TEST(Watchdog, BudgetBelowALocalHitCompletionIsPinned) {
  // Each budget is one cycle below the time of an op completion scheduled by
  // a local-hit issue while strictly earlier than every queued event, so
  // that completion is the first event past the budget.
  const PinnedTimeout pins[] = {
      {{5276, 0},
       "watchdog: cycle budget exceeded at cycle 5277 after 664 events",
       664, 220},
      {{5169, 0},
       "watchdog: cycle budget exceeded at cycle 5170 after 263 events",
       263, 64},
      {{5013, 0},
       "watchdog: cycle budget exceeded at cycle 5014 after 623 events",
       623, 207},
      {{5006, 0},
       "watchdog: cycle budget exceeded at cycle 5007 after 376 events",
       376, 124},
      {{5132, 0},
       "watchdog: cycle budget exceeded at cycle 5133 after 190 events",
       190, 47},
      {{5018, 0},
       "watchdog: cycle budget exceeded at cycle 5019 after 428 events",
       428, 142},
  };
  // Of the dispatched events, those run inline. The completion past the
  // budget left the inline slot but was never dispatched: it is not counted.
  const std::uint64_t inlined[] = {116, 59, 413, 183, 40, 283};
  for (std::size_t i = 0; i < std::size(kPinPoints); ++i) {
    EXPECT_EQ(expect_pinned(kPinPoints[i], pins[i]), inlined[i])
        << kPinPoints[i].label << " on " << kPinPoints[i].preset;
  }
}

TEST(Watchdog, TightProgressWindowIsPinned) {
  // The smallest window each point outlives its start-up with: it fires
  // mid-run, counting fetches and local-hit issues, which mark no progress.
  const PinnedTimeout pins[] = {
      {{0, 3},
       "watchdog: no forward progress at cycle 350 after 18 events",
       18, 5},
      {{0, 5},
       "watchdog: no forward progress at cycle 6844 after 375 events",
       375, 91},
      {{0, 2},
       "watchdog: no forward progress at cycle 253 after 5 events",
       5, 1},
      {{0, 3},
       "watchdog: no forward progress at cycle 510 after 28 events",
       28, 8},
      {{0, 5},
       "watchdog: no forward progress at cycle 18312 after 591 events",
       591, 143},
      {{0, 2},
       "watchdog: no forward progress at cycle 333 after 5 events",
       5, 1},
  };
  for (std::size_t i = 0; i < std::size(kPinPoints); ++i) {
    expect_pinned(kPinPoints[i], pins[i]);
  }
}

}  // namespace
}  // namespace am::sim
