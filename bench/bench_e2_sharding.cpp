// E2 (extension) — sharded-counter sweep: contention relief vs shard count.
//
// The constructive counterpart of F4: if the algorithm allows sharding the
// hot counter, each shard carries threads/k writers and the bouncing model
// prices it directly (predict_sharded_counter_mops). Throughput rises
// roughly linearly in k until shards ~ threads, after which every writer
// owns its line and the workload is compute-bound.
#include <iostream>

#include "bench_core/sim_backend.hpp"
#include "bench_util.hpp"
#include "model/advisor.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("E2: sharded-counter sweep");
  bench_util::add_common_flags(cli, bench_util::kBackend | bench_util::kTrace);
  cli.add_flag("writer-threads", "number of incrementing threads", "32");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const sim::MachineConfig cfg = bench_util::sim_machine(cli);
  bench::SimBackend backend(cfg);
  bench_util::apply_obs(cli, backend);
  const model::BouncingModel model(model::ModelParams::from_machine(cfg));
  const auto threads =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(cli.get_int("writer-threads")),
                              backend.max_threads());

  Table table({"machine", "threads", "shards", "measured Mops", "model Mops",
               "speedup vs 1 shard"});

  double base = 0.0;
  for (std::uint32_t shards : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    if (shards > threads) break;
    bench::WorkloadConfig w;
    w.mode = bench::WorkloadMode::kSharded;
    w.prim = Primitive::kFaa;
    w.threads = threads;
    w.shards = shards;
    const auto run = backend.run(w);
    const double predicted =
        model::predict_sharded_counter_mops(model, threads, 0.0, shards);
    if (shards == 1) base = run.throughput_mops();
    table.add_row({backend.machine_name(), Table::num(std::size_t{threads}),
                   Table::num(std::size_t{shards}),
                   Table::num(run.throughput_mops(), 2),
                   Table::num(predicted, 2),
                   Table::num(base > 0.0 ? run.throughput_mops() / base : 0.0,
                              2)});
  }

  bench_util::emit(cli, "E2: sharded counter (" + cfg.name + ")", table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
