// E5 (extension) — skewed sharing: throughput vs Zipf exponent.
//
// Between the paper's two poles (one shared line, all-private lines) real
// workloads spread accesses over a skewed set of lines. The sweep crosses
// from near-linear scaling (uniform over many lines) to the single-line
// plateau as the exponent grows; the model column is the closed-network
// mean-value analysis (BouncingModel::predict_zipf).
#include <iostream>

#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("E5: Zipf-skewed sharing, throughput vs exponent");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kTrace | bench_util::kSweep);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto probe = bench::make_backend(spec);
  const model::BouncingModel model(bench_util::params_for(spec));
  auto sweep = bench_util::sweep_from(cli, spec);

  Table table({"machine", "threads", "lines", "zipf s", "measured ops/kcy",
               "model ops/kcy"});

  struct Point {
    std::uint32_t threads;
    std::size_t lines;
    double s;
    std::size_t index;
  };
  std::vector<Point> points;
  for (std::uint32_t n :
       bench_util::fixed_thread_counts({8u, 16u, 32u}, probe->max_threads())) {
    for (std::size_t lines : {std::size_t{16}, std::size_t{256}}) {
      for (double s : {0.0, 0.5, 0.8, 0.99, 1.2, 1.5, 2.0}) {
        bench::WorkloadConfig w;
        w.mode = bench::WorkloadMode::kZipf;
        w.prim = Primitive::kFaa;
        w.threads = n;
        w.zipf_lines = lines;
        w.zipf_s = s;
        points.push_back({n, lines, s, sweep.engine->submit(w)});
      }
    }
  }
  sweep.engine->drain();

  for (const Point& p : points) {
    const bench::MeasuredRun* run = sweep.engine->result_or_null(p.index);
    if (run == nullptr) {
      table.add_row(bench_util::degraded_row(
          table,
          {probe->machine_name(), Table::num(std::size_t{p.threads}),
           Table::num(p.lines), Table::num(p.s, 2)},
          sweep.engine->outcome(p.index)));
      continue;
    }
    const model::Prediction pred =
        model.predict_zipf(Primitive::kFaa, p.threads, 0.0, p.lines, p.s);
    table.add_row({probe->machine_name(), Table::num(std::size_t{p.threads}),
                   Table::num(p.lines), Table::num(p.s, 2),
                   Table::num(run->throughput_ops_per_kcycle(), 2),
                   Table::num(pred.throughput_ops_per_kcycle, 2)});
  }

  bench_util::emit(cli, "E5: Zipf sharing (" + probe->machine_name() + ")",
                   table, sweep.engine.get());
  return bench_util::sweep_exit_code(cli, *sweep.engine);
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
