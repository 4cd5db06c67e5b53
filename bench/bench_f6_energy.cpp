// F6 — Energy per operation vs. thread count (package + DRAM split).
//
// The paper reads RAPL around each epoch; the simulator reconstructs the
// same totals from events (core active/spin cycles, transfers, directory
// and memory touches — see sim/energy_model.hpp). The structural result:
// energy per op grows with contention because every op drags a line
// transfer while N-1 cores burn spin power waiting; private lines stay
// flat. The model column prices L(N, w) with the same coefficients.
#include <iostream>

#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F6: energy per operation vs threads");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kThreads | bench_util::kTrace);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto backend = bench_util::backend_from(cli, spec);
  const model::BouncingModel model(bench_util::params_for(spec));
  const auto sweep = bench_util::thread_sweep(cli, backend->max_threads());

  Table table({"machine", "primitive", "workload", "threads",
               "measured nJ/op", "model nJ/op", "pkg nJ/op", "dram nJ/op"});

  for (Primitive prim : {Primitive::kFaa, Primitive::kCasLoop,
                         Primitive::kLoad}) {
    for (bench::WorkloadMode mode : {bench::WorkloadMode::kHighContention,
                                     bench::WorkloadMode::kLowContention}) {
      for (std::uint32_t n : sweep) {
        bench::WorkloadConfig w;
        w.mode = mode;
        w.prim = prim;
        w.threads = n;
        const auto run = backend->run(w);
        if (!run.energy_valid) continue;
        const model::Prediction pred =
            mode == bench::WorkloadMode::kHighContention
                ? model.predict(prim, n, 0.0)
                : model.predict_private(prim, n, 0.0);
        const double ops = static_cast<double>(run.total_ops());
        const double pkg =
            ops > 0.0 ? run.energy_package_j * 1e9 / ops : 0.0;
        const double dram = ops > 0.0 ? run.energy_dram_j * 1e9 / ops : 0.0;
        table.add_row({backend->machine_name(), to_string(prim),
                       to_string(mode), Table::num(std::size_t{n}),
                       Table::num(run.energy_per_op_nj(), 1),
                       Table::num(pred.energy_per_op_nj, 1),
                       Table::num(pkg, 1), Table::num(dram, 1)});
      }
    }
  }

  bench_util::emit(cli,
                   "F6: energy per op (" + backend->machine_name() + ")",
                   table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
