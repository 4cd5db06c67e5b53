// F4 — CAS under contention: success rate of single-shot CAS, acquisition
// cost of the CAS retry loop, and the FAA-vs-CASLOOP gap.
//
// A failed CAS still drags the line to the failing core, so the retry
// loop pays ~N line acquisitions per completed increment while FAA pays
// one — the model's headline design signal. Model columns give the
// closed-form success rate (1/N deterministic, the Poisson fixed point
// under randomized arbitration) and attempts per op.
#include <iostream>

#include "bench_util.hpp"
#include "model/cas_model.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("F4: CAS success rate and CAS-loop cost vs threads");
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

  Table table({"machine", "threads", "CAS success", "model success",
               "CASLOOP acq/op", "model acq/op", "FAA Mops", "CASLOOP Mops",
               "FAA/CASLOOP"});

  // Three points per row (CAS, CASLOOP, FAA); all pooled, rows assembled
  // after the drain in submission order.
  struct Row {
    std::uint32_t threads;
    std::size_t cas, loop, faa;
  };
  std::vector<Row> rows;
  for (std::uint32_t n : thread_points) {
    bench::WorkloadConfig cas;
    cas.mode = bench::WorkloadMode::kHighContention;
    cas.prim = Primitive::kCas;
    cas.threads = n;

    bench::WorkloadConfig loop = cas;
    loop.prim = Primitive::kCasLoop;

    bench::WorkloadConfig faa = cas;
    faa.prim = Primitive::kFaa;

    rows.push_back({n, sweep.engine->submit(cas), sweep.engine->submit(loop),
                    sweep.engine->submit(faa)});
  }
  sweep.engine->drain();

  for (const Row& row : rows) {
    const bench::MeasuredRun* cas_run = sweep.engine->result_or_null(row.cas);
    const bench::MeasuredRun* loop_run = sweep.engine->result_or_null(row.loop);
    const bench::MeasuredRun* faa_run = sweep.engine->result_or_null(row.faa);
    if (cas_run == nullptr || loop_run == nullptr || faa_run == nullptr) {
      // Any of the row's three points failing darkens the whole row: mixing
      // measured and missing primitives in one line would invite bogus
      // ratios.
      const std::size_t bad = cas_run == nullptr  ? row.cas
                              : loop_run == nullptr ? row.loop
                                                    : row.faa;
      table.add_row(bench_util::degraded_row(
          table, {probe->machine_name(), Table::num(std::size_t{row.threads})},
          sweep.engine->outcome(bad)));
      continue;
    }
    const bench::MeasuredRun& r_cas = *cas_run;
    const bench::MeasuredRun& r_loop = *loop_run;
    const bench::MeasuredRun& r_faa = *faa_run;

    const model::Prediction p_cas =
        model.predict(Primitive::kCas, row.threads, 0.0);
    const model::Prediction p_loop =
        model.predict(Primitive::kCasLoop, row.threads, 0.0);

    const double ratio =
        r_loop.throughput_mops() > 0.0
            ? r_faa.throughput_mops() / r_loop.throughput_mops()
            : 0.0;
    table.add_row({probe->machine_name(), Table::num(std::size_t{row.threads}),
                   Table::num(r_cas.success_rate(), 3),
                   Table::num(p_cas.success_rate, 3),
                   Table::num(r_loop.attempts_per_op(), 2),
                   Table::num(p_loop.attempts_per_op, 2),
                   Table::num(r_faa.throughput_mops(), 2),
                   Table::num(r_loop.throughput_mops(), 2),
                   Table::num(ratio, 2)});
  }

  bench_util::emit(cli,
                   "F4: CAS failure behaviour (" + probe->machine_name() +
                       ")",
                   table, sweep.engine.get());
  return bench_util::sweep_exit_code(cli, *sweep.engine);
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
