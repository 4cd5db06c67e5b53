// Counter design study: how should a shared statistics counter be
// implemented across deployment sizes?
//
// The scenario the paper's introduction motivates: a hot counter (request
// counter, freelist head, sequence number) incremented by every thread.
// This example sweeps thread counts and access rates, asks the advisor at
// every point, and verifies the recommendation against the machine —
// including the regime where the counter is *not* hot and the choice stops
// mattering.
//
// Build & run:  ./build/examples/counter_design [--machine=xeon|knl]
#include <cstdio>

#include "bench_core/sim_backend.hpp"
#include "common/cli.hpp"
#include "model/advisor.hpp"
#include "model/bouncing_model.hpp"
#include "sim/config.hpp"

static int run(int argc, const char* const* argv) {
  using namespace am;
  CliParser cli("counter design study");
  cli.add_flag("machine", "sim preset: xeon | knl", "xeon");
  if (!cli.parse(argc, argv)) return 1;

  const sim::MachineConfig machine = sim::preset_by_name(cli.get("machine"));
  const model::BouncingModel model(model::ModelParams::from_machine(machine));
  bench::SimBackend backend(machine);

  std::printf("counter design study on %s\n", machine.name.c_str());
  std::printf("%8s %10s | %-9s | %21s | %21s\n", "threads", "work(cy)",
              "advisor", "FAA meas/pred (Mops)", "CASloop meas/pred");

  for (std::uint32_t threads : {2u, 8u, 16u, 32u}) {
    if (threads > backend.max_threads()) continue;
    for (double work : {0.0, 500.0, 20'000.0}) {
      const model::Advice advice =
          model::advise_counter(model, threads, work);

      auto measure = [&](Primitive prim) {
        bench::WorkloadConfig w;
        w.mode = bench::WorkloadMode::kHighContention;
        w.prim = prim;
        w.threads = threads;
        w.work = static_cast<bench::Cycles>(work);
        return backend.run(w).throughput_mops();
      };
      const double faa_meas = measure(Primitive::kFaa);
      const double loop_meas = measure(Primitive::kCasLoop);
      const double faa_pred =
          model.predict(Primitive::kFaa, threads, work).throughput_mops;
      const double loop_pred =
          model.predict(Primitive::kCasLoop, threads, work).throughput_mops;

      std::printf("%8u %10.0f | %-9s | %9.2f / %8.2f | %9.2f / %8.2f\n",
                  threads, work, advice.recommended.c_str(), faa_meas,
                  faa_pred, loop_meas, loop_pred);
    }
  }

  std::printf(
      "\ntakeaways:\n"
      "  * hot counter: FAA — one line acquisition per increment; the CAS\n"
      "    loop pays ~N and additionally starves all but one thread.\n"
      "  * if the algorithm requires CAS (the update is not an add), pace\n"
      "    retries: the model recommends %.0f cycles of randomized backoff\n"
      "    at 32 threads (see bench_a1_ablations for the sweep).\n"
      "  * cold counter (rare increments): every implementation is\n"
      "    work-bound and the choice is a wash — do not redesign it.\n",
      model::recommended_backoff_cycles(model, 32));
  return 0;
}

int main(int argc, char** argv) { return am::run_main(run, argc, argv); }
