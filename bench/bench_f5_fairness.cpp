// F5 — Fairness vs. thread count, per primitive, with an arbitration-policy
// ablation.
//
// Fairness is reported as Jain's index and the min/max per-thread share.
// Under a FIFO fabric FAA/SWP are perfectly fair; under the proximity-
// biased fabric (requests race to the line's home agent) cores near the
// home win persistently and fairness degrades with N. The CAS retry loop
// is unfair even on a fair fabric: completions concentrate on whichever
// core holds a fresh expectation. The model column predicts Jain from the
// hand-off process's grant shares.
#include <iostream>

#include "bench_core/sim_backend.hpp"
#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F5: fairness vs threads, arbitration ablation");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kThreads | bench_util::kTrace);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const sim::MachineConfig base = bench_util::sim_machine(cli);

  Table table({"machine", "arbitration", "primitive", "threads",
               "Jain (measured)", "Jain (model)", "min/max share"});

  for (sim::Arbitration arb :
       {sim::Arbitration::kProximityBiased, sim::Arbitration::kFifo}) {
    sim::MachineConfig cfg = base;
    cfg.arbitration = arb;
    bench::SimBackend backend(cfg);
    bench_util::apply_obs(cli, backend);
    const model::BouncingModel model(model::ModelParams::from_machine(cfg));
    const auto sweep = bench_util::thread_sweep(cli, backend.max_threads());

    for (Primitive prim :
         {Primitive::kFaa, Primitive::kSwap, Primitive::kCasLoop}) {
      for (std::uint32_t n : sweep) {
        if (n < 2) continue;
        bench::WorkloadConfig w;
        w.mode = bench::WorkloadMode::kHighContention;
        w.prim = prim;
        w.threads = n;
        const auto run = backend.run(w);
        const model::Prediction pred = model.predict(prim, n, 0.0);
        table.add_row({cfg.name, to_string(arb), to_string(prim),
                       Table::num(std::size_t{n}),
                       Table::num(run.jain_fairness(), 3),
                       Table::num(pred.fairness_jain, 3),
                       Table::num(run.min_max_ratio(), 3)});
      }
    }
  }

  bench_util::emit(cli, "F5: fairness vs threads (" + base.name + ")", table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
