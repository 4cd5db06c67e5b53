// F1 — High-contention throughput vs. thread count, all primitives.
//
// The paper's headline figure: RMW primitives plateau almost immediately
// (one line hand-off per op, serialized), LOAD scales linearly (Shared
// copies), and the CAS retry loop *degrades* with threads. The model
// column overlays the closed-form prediction on every measured point.
#include <iostream>

#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F1: high-contention throughput vs threads");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kThreads | bench_util::kTrace |
               bench_util::kSweep);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto probe = bench::make_backend(spec);
  const model::BouncingModel model(bench_util::params_for(spec));
  const auto thread_points =
      bench_util::thread_sweep(cli, probe->max_threads());
  auto sweep = bench_util::sweep_from(cli, spec);

  Table table({"machine", "primitive", "threads", "measured Mops",
               "model Mops", "measured ops/kcy", "model ops/kcy"});

  // Submit the full grid, then build the table from the drained results in
  // submission order — rows and run log are identical at any --jobs.
  struct Point {
    Primitive prim;
    std::uint32_t threads;
    std::size_t index;
  };
  std::vector<Point> points;
  for (Primitive prim : all_primitives()) {
    for (std::uint32_t n : thread_points) {
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kHighContention;
      w.prim = prim;
      w.threads = n;
      points.push_back({prim, n, sweep.engine->submit(w)});
    }
  }
  sweep.engine->drain();

  for (const Point& p : points) {
    const bench::MeasuredRun* run = sweep.engine->result_or_null(p.index);
    if (run == nullptr) {
      // A failed point degrades to a dark row; the sweep summary carries
      // its outcome and replay command.
      table.add_row(bench_util::degraded_row(
          table,
          {probe->machine_name(), to_string(p.prim),
           Table::num(std::size_t{p.threads})},
          sweep.engine->outcome(p.index)));
      continue;
    }
    const model::Prediction pred = model.predict(p.prim, p.threads, 0.0);
    table.add_row({probe->machine_name(), to_string(p.prim),
                   Table::num(std::size_t{p.threads}),
                   Table::num(run->throughput_mops(), 2),
                   Table::num(pred.throughput_mops, 2),
                   Table::num(run->throughput_ops_per_kcycle(), 3),
                   Table::num(pred.throughput_ops_per_kcycle, 3)});
  }

  bench_util::emit(cli,
                   "F1: throughput vs threads, shared line, w=0 (" +
                       probe->machine_name() + ")",
                   table, sweep.engine.get());
  return bench_util::sweep_exit_code(cli, *sweep.engine);
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
