// Lock selection study: which spinlock for a given critical section and
// thread count?
//
// Uses the model's advisor for the ranking, then runs all four protocols
// (TAS, TTAS, ticket, MCS) on the coherence machine to confirm both the
// ordering and the fairness story (ticket/MCS are FIFO-fair; TAS/TTAS
// inherit the fabric's proximity bias).
//
// Build & run:  ./build/examples/lock_selection [--threads=24]
//               [--critical=150] [--outside=300] [--machine=xeon|knl]
#include <cstdio>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "locks/lock_programs.hpp"
#include "model/advisor.hpp"
#include "model/bouncing_model.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"

static int run(int argc, const char* const* argv) {
  using namespace am;
  CliParser cli("spinlock selection study");
  cli.add_flag("machine", "sim preset: xeon | knl", "xeon");
  cli.add_flag("threads", "contending threads", "24");
  cli.add_flag("critical", "cycles inside the lock", "150");
  cli.add_flag("outside", "cycles between acquisitions", "300");
  if (!cli.parse(argc, argv)) return 1;

  const sim::MachineConfig machine = sim::preset_by_name(cli.get("machine"));
  const auto threads = static_cast<sim::CoreId>(cli.get_int("threads"));
  const double critical = cli.get_double("critical");
  const double outside = cli.get_double("outside");

  const model::BouncingModel model(model::ModelParams::from_machine(machine));
  const model::Advice advice =
      model::advise_lock(model, threads, critical, outside);

  std::printf("lock selection on %s, %u threads, cs=%.0f cy, outside=%.0f cy\n",
              machine.name.c_str(), threads, critical, outside);
  std::printf("\nadvisor ranking (model):\n");
  for (const auto& option : advice.options) {
    std::printf("  %-7s %8.3f Mops   %s\n", option.name.c_str(),
                option.throughput_mops, option.note.c_str());
  }
  std::printf("  rationale: %s\n", advice.rationale.c_str());

  locks::LockWorkload wl;
  wl.critical_work = static_cast<sim::Cycles>(critical);
  wl.outside_work = static_cast<sim::Cycles>(outside);

  std::printf("\nmeasured on the coherence machine:\n");
  auto measure = [&](auto make_program, locks::LockKind kind) {
    sim::Machine sim_machine(machine);
    auto program = make_program();
    const sim::RunStats stats =
        sim_machine.run(program, threads, 50'000, 400'000);
    const double acq = static_cast<double>(
        locks::LockProgramBase::acquisitions(stats, kind));
    const auto shares =
        locks::LockProgramBase::acquisition_shares(stats, kind);
    const double mops = acq / static_cast<double>(stats.measured_cycles) *
                        machine.freq_ghz * 1e3;
    std::printf("  %-7s %8.3f Mops   fairness (Jain) %.3f\n",
                to_string(kind), mops, jain_fairness(shares));
  };
  measure([&] { return locks::TasLockProgram(wl); }, locks::LockKind::kTas);
  measure([&] { return locks::TtasLockProgram(wl); }, locks::LockKind::kTtas);
  measure([&] { return locks::TicketLockProgram(wl); },
          locks::LockKind::kTicket);
  measure([&] { return locks::McsLockProgram(wl); }, locks::LockKind::kMcs);

  std::printf(
      "\nnotes:\n"
      "  * the hardware-thread implementations of all four locks live in\n"
      "    src/locks/spinlocks.hpp and pass the mutual-exclusion tests in\n"
      "    tests/locks/spinlocks_test.cpp on any host;\n"
      "  * bench_f7_casestudy repeats this study across a thread sweep\n"
      "    (--backend=sim:xeon | sim:knl).\n");
  return 0;
}

int main(int argc, char** argv) { return am::run_main(run, argc, argv); }
