// E1 (extension) — private working-set sweep: the capacity cliff.
//
// Each thread cycles through its own set of lines. While the set fits the
// private cache every access is an L1 hit; once it exceeds the capacity the
// LRU walk evicts every line before its reuse and every access misses to
// memory. The per-op cost jumps from c to memory_fill + c — a square wave
// the model predicts exactly. This exercises the simulator's eviction
// machinery and bounds the low-contention regime of T2.
#include <iostream>

#include "bench_core/sim_backend.hpp"
#include "bench_util.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("E1: private working-set sweep (capacity cliff)");
  bench_util::add_common_flags(cli, bench_util::kBackend | bench_util::kTrace);
  cli.add_flag("capacity", "private cache capacity in lines", "512");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  sim::MachineConfig cfg = bench_util::sim_machine(cli);
  const auto capacity = static_cast<std::uint32_t>(cli.get_int("capacity"));
  cfg.cache_capacity_lines = capacity;
  bench::SimBackend backend(cfg);
  bench_util::apply_obs(cli, backend);
  const model::BouncingModel model(model::ModelParams::from_machine(cfg));

  Table table({"machine", "capacity", "lines/thread", "cycles/op",
               "model fit (cy)", "model miss (cy)", "mem fetches/op"});

  const double fit_cost = model.params().local_op_cycles(Primitive::kFaa);
  const double miss_cost = model.params().memory_fill + fit_cost;

  const auto cap64 = static_cast<std::uint64_t>(capacity);
  for (std::uint64_t lines : {cap64 / 8, cap64 / 2, cap64 - 1, cap64 + 1,
                              cap64 * 2, cap64 * 8}) {
    if (lines == 0) continue;
    bench::WorkloadConfig w;
    w.mode = bench::WorkloadMode::kPrivateWalk;
    w.prim = Primitive::kFaa;
    w.threads = 4;
    w.lines_per_thread = lines;
    const auto run = backend.run(w);
    const double ops = static_cast<double>(run.total_ops());
    if (ops == 0.0) continue;
    const double cycles_per_op =
        run.duration_cycles * w.threads / ops;  // per-thread cost
    table.add_row({backend.machine_name(), Table::num(std::size_t{capacity}),
                   Table::num(std::size_t{lines}),
                   Table::num(cycles_per_op, 1), Table::num(fit_cost, 1),
                   Table::num(miss_cost, 1),
                   Table::num(static_cast<double>(run.memory_fetches) / ops,
                              2)});
  }

  bench_util::emit(cli,
                   "E1: working-set sweep, capacity " +
                       std::to_string(capacity) + " lines (" + cfg.name + ")",
                   table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
