// F2 — Per-operation latency vs. thread count under high contention.
//
// The dual of F1: with the line saturated, every additional thread adds a
// full hand-off to everyone else's wait, so mean latency grows linearly in
// N (slope = hold time) while the max tracks queueing jitter. The model
// column is L(N, 0) = N * h.
#include <iostream>

#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F2: high-contention per-op latency vs threads");
  bench_util::add_common_flags(
      cli, bench_util::kBackend | bench_util::kThreads | bench_util::kTrace);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto backend = bench_util::backend_from(cli, spec);
  const model::BouncingModel model(bench_util::params_for(spec));
  const auto sweep = bench_util::thread_sweep(cli, backend->max_threads());

  Table table({"machine", "primitive", "threads", "mean latency (cy)",
               "max latency (cy)", "model (cy)", "mean (ns)"});

  for (Primitive prim :
       {Primitive::kFaa, Primitive::kSwap, Primitive::kCas, Primitive::kLoad}) {
    for (std::uint32_t n : sweep) {
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kHighContention;
      w.prim = prim;
      w.threads = n;
      const bench::MeasuredRun run = backend->run(w);
      const model::Prediction pred = model.predict(prim, n, 0.0);
      double max_lat = 0.0;
      bool tail_valid = false;  // p99 of 0 means "not sampled", not "instant"
      for (const auto& t : run.threads) {
        if (!t.latency_tail_valid) continue;
        tail_valid = true;
        max_lat = std::max(max_lat, t.p99_latency_cycles);
      }
      table.add_row(
          {backend->machine_name(), to_string(prim), Table::num(std::size_t{n}),
           Table::num(run.mean_latency_cycles(), 1),
           tail_valid ? Table::num(max_lat, 1) : "n/a",
           Table::num(pred.latency_cycles, 1),
           Table::num(run.mean_latency_cycles() / backend->freq_ghz(), 1)});
    }
  }

  bench_util::emit(cli,
                   "F2: per-op latency vs threads, shared line, w=0 (" +
                       backend->machine_name() + ")",
                   table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
