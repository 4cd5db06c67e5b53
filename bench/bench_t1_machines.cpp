// T1 — Machine parameters of the two studied architectures.
//
// Reproduces the paper's testbed table: core counts, clocks, and the
// transfer-cost parameters the model runs on, shown twice — the configured
// (analytic) values and the values recovered by black-box calibration
// against the running machine. Matching columns demonstrate the
// calibration procedure the paper's "simple to use in practice" claim
// rests on.
#include <iostream>

#include "bench_core/sim_backend.hpp"
#include "bench_util.hpp"
#include "model/calibrate.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("T1: machine parameter table (configured vs calibrated)");
  // Fixed to both presets: no --backend, no --threads.
  bench_util::add_common_flags(cli, bench_util::kTrace | bench_util::kSweep);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  Table table({"machine", "cores", "GHz", "topology", "param", "configured",
               "calibrated", "fit r^2"});

  // One pooled task per preset: calibration is an adaptive multi-run
  // procedure, so it runs whole on one worker with its runs recorded into a
  // task-local log the engine merges back in submission order.
  auto sweep = bench_util::sweep_from(cli, std::nullopt);
  const std::vector<std::string> presets = {"xeon", "knl"};
  std::vector<model::Calibration> calibrations(presets.size());
  std::vector<std::size_t> task_index(presets.size());
  for (std::size_t i = 0; i < presets.size(); ++i) {
    sim::MachineConfig cfg = sim::preset_by_name(presets[i]);
    // FIFO keeps the near/far mixture exactly identifiable for the fit.
    sim::MachineConfig fifo = cfg;
    fifo.arbitration = sim::Arbitration::kFifo;
    task_index[i] = sweep.engine->submit_task(
        [&cli, &sweep, &calibrations, i, fifo](
            std::uint64_t seed, std::vector<bench::RecordedRun>& log) {
          bench::SimBackend backend(fifo, {}, seed);
          backend.set_run_recorder(&log);
          bench_util::apply_task_obs(cli, sweep.trace.get(), backend);
          const model::ModelParams skeleton =
              model::ModelParams::from_machine(fifo);
          calibrations[i] = model::calibrate(backend, skeleton);
        });
  }
  sweep.engine->drain();

  for (std::size_t i = 0; i < presets.size(); ++i) {
    const sim::MachineConfig cfg = sim::preset_by_name(presets[i]);
    const auto outcome = sweep.engine->outcome(task_index[i]);
    if (outcome.status != bench::PointStatus::kOk) {
      // A failed calibration would leave all-default columns; dark the
      // preset's block instead and let the sweep summary explain why.
      table.add_row(bench_util::degraded_row(
          table,
          {cfg.name, Table::num(std::size_t{cfg.core_count()}),
           Table::num(cfg.freq_ghz, 1)},
          outcome));
      continue;
    }
    const model::Calibration& cal = calibrations[i];

    const auto ic = cfg.make_interconnect();
    auto row = [&](const std::string& param, double configured,
                   double calibrated) {
      table.add_row({cfg.name, Table::num(std::size_t{cfg.core_count()}),
                     Table::num(cfg.freq_ghz, 1), ic->describe(), param,
                     Table::num(configured, 1), Table::num(calibrated, 1),
                     Table::num(cal.fit_r_squared, 3)});
    };
    const double near_cfg = cfg.interconnect == sim::InterconnectKind::kMesh
                                ? static_cast<double>(cfg.mesh_base_xfer)
                                : static_cast<double>(cfg.same_socket_xfer);
    const double far_cfg =
        cfg.interconnect == sim::InterconnectKind::kMesh
            ? static_cast<double>(cfg.mesh_base_xfer + 8 * cfg.mesh_per_hop)
            : static_cast<double>(cfg.cross_socket_xfer);
    row("t_near (cy)", near_cfg, cal.t_near);
    row("t_far (cy)", far_cfg, cal.t_far);
    row("c_FAA (cy)",
        static_cast<double>(cfg.l1_hit + cfg.exec_cost_of(Primitive::kFaa)),
        cal.local_cost[static_cast<std::size_t>(Primitive::kFaa)]);
    row("c_CAS (cy)",
        static_cast<double>(cfg.l1_hit + cfg.exec_cost_of(Primitive::kCas)),
        cal.local_cost[static_cast<std::size_t>(Primitive::kCas)]);
    row("c_LOAD (cy)",
        static_cast<double>(cfg.l1_hit + cfg.exec_cost_of(Primitive::kLoad)),
        cal.local_cost[static_cast<std::size_t>(Primitive::kLoad)]);
    if (cal.hop_fit) {
      // Distance-aware refinement (mesh machines): strictly better r^2.
      table.add_row({cfg.name, Table::num(std::size_t{cfg.core_count()}),
                     Table::num(cfg.freq_ghz, 1), ic->describe(),
                     "t_base (cy/hop fit)",
                     Table::num(static_cast<double>(cfg.mesh_base_xfer), 1),
                     Table::num(cal.t_base, 1),
                     Table::num(cal.hop_fit_r_squared, 3)});
      table.add_row({cfg.name, Table::num(std::size_t{cfg.core_count()}),
                     Table::num(cfg.freq_ghz, 1), ic->describe(),
                     "t_per_hop (cy/hop fit)",
                     Table::num(static_cast<double>(cfg.mesh_per_hop), 1),
                     Table::num(cal.t_per_hop, 1),
                     Table::num(cal.hop_fit_r_squared, 3)});
    }
  }

  bench_util::emit(cli, "T1: machine parameters (configured vs calibrated)",
                   table, sweep.engine.get());
  return bench_util::sweep_exit_code(cli, *sweep.engine);
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
