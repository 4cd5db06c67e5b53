// T3 — Model validation: predicted vs. measured over the full
// (primitive, threads, work) grid, with aggregate error metrics.
//
// This is the paper's accuracy table. Absolute agreement is expected to be
// tight against the simulator (the model abstracts exactly its hand-off
// process); on hardware the same harness reports how well the calibrated
// model carries over.
#include <iostream>

#include "bench_util.hpp"
#include "model/validate.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("T3: model validation grid (predicted vs measured)");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kThreads | bench_util::kTrace);
  cli.add_flag("full", "sweep the full grid (slower)", "false");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto backend = bench_util::backend_from(cli, spec);
  const model::BouncingModel model(bench_util::params_for(spec));

  model::ValidationOptions opts;
  opts.primitives = {Primitive::kLoad, Primitive::kStore, Primitive::kSwap,
                     Primitive::kTas,  Primitive::kFaa,   Primitive::kCas,
                     Primitive::kCasLoop};
  opts.thread_counts.clear();
  for (std::uint32_t n : bench_util::thread_sweep(cli, backend->max_threads())) {
    opts.thread_counts.push_back(n);
  }
  opts.work_values = cli.get_bool("full")
                         ? std::vector<double>{0, 100, 500, 1000, 2000, 4000,
                                               8000, 16000}
                         : std::vector<double>{0, 500, 4000};

  const model::ValidationReport report =
      model::validate(*backend, model, opts);

  Table table({"primitive", "threads", "work", "meas ops/kcy", "pred ops/kcy",
               "tput err %", "meas lat cy", "pred lat cy", "lat err %"});
  for (const auto& p : report.points) {
    table.add_row({to_string(p.prim), Table::num(std::size_t{p.threads}),
                   Table::num(p.work, 0), Table::num(p.measured_tput, 3),
                   Table::num(p.predicted_tput, 3),
                   Table::num(p.tput_error() * 100.0, 1),
                   Table::num(p.measured_latency, 1),
                   Table::num(p.predicted_latency, 1),
                   Table::num(p.latency_error() * 100.0, 1)});
  }

  bench_util::emit(cli,
                   "T3: validation grid (" + backend->machine_name() + ")",
                   table);
  std::cout << "aggregate: throughput MAPE = "
            << Table::num(report.mape_throughput * 100.0, 2)
            << "%, latency MAPE = "
            << Table::num(report.mape_latency * 100.0, 2)
            << "%, worst throughput error = "
            << Table::num(report.max_rel_err_throughput * 100.0, 2) << "%\n";
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
