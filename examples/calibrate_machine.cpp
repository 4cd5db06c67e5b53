// Calibration walkthrough: instantiate the model for *this* machine from
// black-box measurements, then check how well it predicts.
//
// This is the workflow a practitioner follows on new hardware:
//   1. run the probe suite (single-thread local costs + an FAA thread
//      sweep under high contention),
//   2. least-squares-fit the near/far transfer costs,
//   3. validate the resulting model on workloads the probes never ran.
//
// Build & run:  ./build/examples/calibrate_machine [--backend=sim:xeon|sim:knl|hw]
#include <cstdio>

#include "bench_core/backend.hpp"
#include "common/cli.hpp"
#include "model/bouncing_model.hpp"
#include "model/calibrate.hpp"
#include "model/params_io.hpp"
#include "model/validate.hpp"
#include "sim/config.hpp"

static int run(int argc, const char* const* argv) {
  using namespace am;
  CliParser cli("model calibration walkthrough");
  cli.add_flag("backend", "sim[:<preset>[:sc|:tso]] | hw | auto", "sim:xeon");
  cli.add_flag("save", "write calibrated parameters to this file", "");
  if (!cli.parse(argc, argv)) return 1;

  const bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  auto backend = bench::make_backend(spec);

  // The skeleton provides structure only (which core pairs are near/far);
  // for hardware runs the Xeon two-socket skeleton is the default shape.
  sim::MachineConfig shape = spec.hw ? sim::xeon_e5_2x18() : spec.machine;
  shape.arbitration = sim::Arbitration::kFifo;  // identifiable mixture
  const model::ModelParams skeleton = model::ModelParams::from_machine(shape);

  std::printf("calibrating against %s:%s (%u threads available)\n",
              backend->name().c_str(), backend->machine_name().c_str(),
              backend->max_threads());

  const model::Calibration cal = model::calibrate(*backend, skeleton);
  std::printf("\nprobe log:\n%s", cal.log.c_str());
  if (!cal.ok) {
    std::printf("calibration failed — see the log above\n");
    return 1;
  }
  std::printf("calibrated: t_near=%.1f cy, t_far=%.1f cy (r^2=%.3f)\n",
              cal.t_near, cal.t_far, cal.fit_r_squared);

  // Validate on primitives/thread counts the probes never measured.
  const model::BouncingModel model(cal.apply_to(skeleton));
  model::ValidationOptions opts;
  opts.primitives = {Primitive::kSwap, Primitive::kCas, Primitive::kStore};
  opts.thread_counts = {};
  for (std::uint32_t n : {2u, 6u, 10u, 20u, 30u}) {
    if (n <= backend->max_threads()) opts.thread_counts.push_back(n);
  }
  opts.work_values = {0.0, 800.0};
  const model::ValidationReport report =
      model::validate(*backend, model, opts);

  std::printf("\nvalidation on unseen workloads: throughput MAPE %.2f%%, "
              "latency MAPE %.2f%% over %zu grid points\n",
              report.mape_throughput * 100.0, report.mape_latency * 100.0,
              report.points.size());

  const std::string save_path = cli.get("save");
  if (!save_path.empty()) {
    if (model::save_params_file(model.params(), save_path)) {
      std::printf("calibrated parameters saved to %s (reload with "
                  "model::load_params_file)\n",
                  save_path.c_str());
    } else {
      std::printf("failed to write %s\n", save_path.c_str());
    }
  }
  std::printf("the calibrated model is ready: BouncingModel::predict(prim, "
              "threads, work)\n");
  return 0;
}

int main(int argc, char** argv) { return am::run_main(run, argc, argv); }
