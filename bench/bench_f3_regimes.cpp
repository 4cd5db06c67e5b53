// F3 — Throughput vs. parallel work w at fixed thread counts: the paper's
// two-regime figure.
//
// Below the crossover w* = (N-1)*h the system is saturated: work hides
// behind the queue and throughput stays pinned at 1/h. Beyond w* the
// system is work-bound: X = N/(w + h). The harness sweeps w across the
// crossover for several N and prints the model prediction, the measured
// value, and the regime the model assigns.
#include <iostream>

#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F3: throughput vs parallel work (two regimes + crossover)");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kTrace | bench_util::kSweep);
  cli.add_flag("prim", "primitive to sweep", "FAA");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto probe = bench::make_backend(spec);
  const model::BouncingModel model(bench_util::params_for(spec));
  const Primitive prim = bench_util::primitive_flag(cli, "prim");
  auto sweep = bench_util::sweep_from(cli, spec);

  Table table({"machine", "threads", "work (cy)", "w/w*", "measured ops/kcy",
               "model ops/kcy", "regime", "crossover w* (cy)"});

  struct Point {
    std::uint32_t threads;
    bench::Cycles work;
    double frac;
    double wstar;
    std::size_t index;
  };
  std::vector<Point> points;
  for (std::uint32_t n : bench_util::fixed_thread_counts(
           {8u, 16u, 32u, 64u}, probe->max_threads())) {
    const double wstar = model.crossover_work(prim, n);
    for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0}) {
      const auto work = static_cast<bench::Cycles>(frac * wstar);
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kHighContention;
      w.prim = prim;
      w.threads = n;
      w.work = work;
      points.push_back({n, work, frac, wstar, sweep.engine->submit(w)});
    }
  }
  sweep.engine->drain();

  for (const Point& p : points) {
    const bench::MeasuredRun* run = sweep.engine->result_or_null(p.index);
    if (run == nullptr) {
      table.add_row(bench_util::degraded_row(
          table,
          {probe->machine_name(), Table::num(std::size_t{p.threads}),
           Table::num(std::size_t{p.work})},
          sweep.engine->outcome(p.index)));
      continue;
    }
    const model::Prediction pred =
        model.predict(prim, p.threads, static_cast<double>(p.work));
    table.add_row({probe->machine_name(), Table::num(std::size_t{p.threads}),
                   Table::num(std::size_t{p.work}), Table::num(p.frac, 2),
                   Table::num(run->throughput_ops_per_kcycle(), 3),
                   Table::num(pred.throughput_ops_per_kcycle, 3),
                   to_string(pred.regime), Table::num(p.wstar, 0)});
  }

  bench_util::emit(cli,
                   std::string("F3: regimes and crossover, ") +
                       to_string(prim) + " (" + probe->machine_name() + ")",
                   table, sweep.engine.get());
  return bench_util::sweep_exit_code(cli, *sweep.engine);
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
