// E3 (extension) — read-mostly sharing: throughput vs write fraction.
//
// The paper's low-contention application context: a shared variable that is
// read constantly and written occasionally. Reads hit Shared copies and
// scale; every write invalidates all readers and triggers a refetch burst.
// The sweep shows the cliff between "read-only scales with N" and "a few
// percent writes serialize everything", with the model's mixed prediction
// overlaid.
#include <iostream>

#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("E3: read-mostly mix, throughput vs write fraction");
  bench_util::add_common_flags(cli, bench_util::kBackend | bench_util::kTrace);
  cli.add_flag("write-prim", "write primitive (FAA | STORE | SWP | CAS)",
               "FAA");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto backend = bench_util::backend_from(cli, spec);
  const model::BouncingModel model(bench_util::params_for(spec));
  const Primitive write_prim = bench_util::primitive_flag(cli, "write-prim");

  Table table({"machine", "threads", "write %", "measured ops/kcy",
               "model ops/kcy", "invalidations/op"});

  for (std::uint32_t n : bench_util::fixed_thread_counts(
           {8u, 16u, 32u}, backend->max_threads())) {
    for (double f : {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kMixedReadWrite;
      w.prim = write_prim;
      w.threads = n;
      w.write_fraction = f;
      const auto run = backend->run(w);
      const model::Prediction pred =
          model.predict_mixed(write_prim, f, n, 0.0);
      const double ops = static_cast<double>(run.total_ops());
      table.add_row({backend->machine_name(), Table::num(std::size_t{n}),
                     Table::num(f * 100.0, 1),
                     Table::num(run.throughput_ops_per_kcycle(), 2),
                     Table::num(pred.throughput_ops_per_kcycle, 2),
                     Table::num(ops > 0
                                    ? static_cast<double>(run.invalidations) /
                                          ops
                                    : 0.0,
                                3)});
    }
  }

  bench_util::emit(cli,
                   std::string("E3: read-mostly mix, writes via ") +
                       to_string(write_prim) + " (" + backend->machine_name() +
                       ")",
                   table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
