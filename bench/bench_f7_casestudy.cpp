// F7 — Case study: model-guided algorithmic design decisions.
//
// Two decisions the paper's abstract promises the model facilitates:
//   (a) shared counter — FAA vs CAS retry loop vs lock-protected increment;
//   (b) spinlock choice — TAS vs TTAS vs ticket vs MCS.
// For each, the harness prints the advisor's model-based ranking next to
// the outcome of actually running the candidates on the coherence machine
// (counters via the primitive workloads; locks via the protocol programs).
#include <iostream>

#include "bench_core/sim_backend.hpp"
#include "bench_util.hpp"
#include "locks/lock_programs.hpp"
#include "model/advisor.hpp"
#include "common/stats.hpp"
#include "sim/machine.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F7: case study — counters and spinlocks, model vs machine");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kThreads | bench_util::kTrace);
  cli.add_flag("critical", "critical-section cycles for the lock study", "100");
  cli.add_flag("outside", "cycles outside the lock", "200");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const sim::MachineConfig cfg = bench_util::sim_machine(cli);
  bench::SimBackend backend(cfg);
  bench_util::apply_obs(cli, backend);
  const model::BouncingModel model(model::ModelParams::from_machine(cfg));
  const auto critical = static_cast<sim::Cycles>(cli.get_int("critical"));
  const auto outside = static_cast<sim::Cycles>(cli.get_int("outside"));

  // --- (a) counters ---------------------------------------------------------
  Table counters({"threads", "impl", "measured Mops", "advisor Mops",
                  "advisor pick"});
  for (std::uint32_t n : bench_util::thread_sweep(cli, backend.max_threads())) {
    if (n < 2) continue;
    const model::Advice advice = model::advise_counter(model, n, 0.0);
    auto advisor_mops = [&](const std::string& name) {
      for (const auto& o : advice.options) {
        if (o.name == name) return o.throughput_mops;
      }
      return 0.0;
    };

    for (Primitive prim : {Primitive::kFaa, Primitive::kCasLoop}) {
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kHighContention;
      w.prim = prim;
      w.threads = n;
      const auto r = backend.run(w);
      const std::string name =
          prim == Primitive::kFaa ? "FAA" : "CAS-loop";
      counters.add_row({Table::num(std::size_t{n}), name,
                        Table::num(r.throughput_mops(), 2),
                        Table::num(advisor_mops(name), 2),
                        advice.recommended});
    }
    // Lock-protected increment: TAS lock around one FAA on a data line.
    locks::LockWorkload wl;
    wl.critical_work = 0;
    wl.outside_work = 0;
    wl.cs_data_ops = 1;
    sim::Machine machine(cfg);
    locks::TasLockProgram prog(wl);
    const sim::RunStats st = machine.run(prog, n, 50'000, 250'000);
    const double incs = static_cast<double>(
        locks::LockProgramBase::acquisitions(st, locks::LockKind::kTas));
    const double mops = incs / static_cast<double>(st.measured_cycles) *
                        cfg.freq_ghz * 1e3;
    counters.add_row({Table::num(std::size_t{n}), "lock+inc",
                      Table::num(mops, 2), Table::num(advisor_mops("lock+inc"), 2),
                      advice.recommended});
  }
  bench_util::emit(cli, "F7a: shared-counter implementations (" + cfg.name + ")",
                   counters);

  // --- (b) locks ------------------------------------------------------------
  Table lock_table({"threads", "lock", "acquisitions/kcy", "Jain", "sim Mops",
                    "advisor Mops", "advisor pick"});
  locks::LockWorkload wl;
  wl.critical_work = critical;
  wl.outside_work = outside;
  for (std::uint32_t n : bench_util::thread_sweep(cli, backend.max_threads())) {
    if (n < 2) continue;
    const model::Advice advice = model::advise_lock(
        model, n, static_cast<double>(critical), static_cast<double>(outside));
    auto advisor_mops = [&](const std::string& name) {
      for (const auto& o : advice.options) {
        if (o.name == name) return o.throughput_mops;
      }
      return 0.0;
    };

    auto measure = [&](auto make_program, locks::LockKind kind,
                       const std::string& name) {
      sim::Machine machine(cfg);
      auto prog = make_program();
      const sim::RunStats st = machine.run(prog, n, 50'000, 300'000);
      const double acq = static_cast<double>(
          locks::LockProgramBase::acquisitions(st, kind));
      const auto shares = locks::LockProgramBase::acquisition_shares(st, kind);
      const double per_kcycle =
          acq * 1000.0 / static_cast<double>(st.measured_cycles);
      lock_table.add_row(
          {Table::num(std::size_t{n}), name, Table::num(per_kcycle, 3),
           Table::num(jain_fairness(shares), 3),
           Table::num(per_kcycle * cfg.freq_ghz, 3),
           Table::num(advisor_mops(name), 3), advice.recommended});
    };
    measure([&] { return locks::TasLockProgram(wl); }, locks::LockKind::kTas,
            "TAS");
    measure([&] { return locks::TtasLockProgram(wl); }, locks::LockKind::kTtas,
            "TTAS");
    measure([&] { return locks::TicketLockProgram(wl); },
            locks::LockKind::kTicket, "ticket");
    measure([&] { return locks::McsLockProgram(wl); }, locks::LockKind::kMcs,
            "MCS");
  }
  bench_util::emit(cli, "F7b: spinlock protocols (" + cfg.name + ")",
                   lock_table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
