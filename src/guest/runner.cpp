#include "guest/runner.hpp"

#include <stdexcept>
#include <utility>

#include "bench_core/sim_backend.hpp"
#include "guest/elf.hpp"
#include "sim/machine.hpp"

namespace am::guest {

bench::BackendSpec parse_guest_backend(const std::string& spec) {
  // "hw" and "auto" name no simulated machine a guest could run on.
  if (spec.rfind("sim", 0) != 0) {
    throw std::invalid_argument(
        "guest workloads need a simulator backend (got '" + spec +
        "'); use sim:xeon, sim:knl or sim:test");
  }
  return bench::parse_backend_spec(spec);
}

GuestRunResult run_guest(const std::uint8_t* elf, std::size_t len,
                         const GuestRunConfig& config) {
  GuestRunResult out;
  out.harts = config.harts;
  out.seed = config.seed;

  sim::MachineConfig mc;
  try {
    bench::BackendSpec spec = parse_guest_backend(config.backend);
    mc = std::move(spec.machine);
    out.machine = spec.preset;
  } catch (const std::invalid_argument& e) {
    out.error = GuestError::make(errc::kBadBackend, e.what());
    return out;
  }
  out.memory_model = mc.memory_model;

  if (config.harts == 0 || config.harts > mc.cores) {
    out.error = GuestError::make(
        errc::kBadHarts, "harts must be in [1, " + std::to_string(mc.cores) +
                             "] for machine '" + out.machine + "' (got " +
                             std::to_string(config.harts) + ")");
    return out;
  }

  GuestConfig gc = config.guest;
  gc.harts = config.harts;
  gc.seed = config.seed;

  GuestImage image;
  std::uint64_t stack_total =
      static_cast<std::uint64_t>(gc.stack_bytes) * config.harts;
  GuestError load_error =
      load_elf32(elf, len, config.limits, stack_total, &image);
  if (!load_error.ok()) {
    out.error = load_error;
    return out;
  }

  GuestProgram program(std::move(image), gc);

  sim::Machine machine(mc, config.seed);
  // The watchdog is a backstop against simulator-level stalls; the real
  // ceiling is the measure window below (and the interpreter's own
  // instruction budget). progress_events catches event-storm livelock.
  machine.set_watchdog(
      sim::WatchdogConfig{config.max_cycles * 2, 10'000'000});
  machine.set_sink(config.trace);

  try {
    out.stats = machine.run(program, config.harts, /*warmup=*/0,
                            /*measure=*/config.max_cycles);
  } catch (const sim::PointTimeout& timeout) {
    out.error = GuestError::make(
        errc::kCycleBudget,
        std::string("simulation watchdog tripped (") +
            sim::to_string(timeout.kind) + " at cycle " +
            std::to_string(timeout.at_cycle) + ")");
    return out;
  }

  out.completion_cycles = machine.now();
  out.hart_reports = program.harts();
  out.stdout_bytes = program.stdout_bytes();
  out.total_instructions = program.total_instructions();
  for (const HartReport& h : out.hart_reports) {
    out.total_atomics += h.atomics;
    out.total_yields += h.yields;
    out.total_sc_failures += h.sc_failures;
  }

  if (!program.error().ok()) {
    out.error = program.error();
    return out;
  }
  if (!program.all_exited()) {
    out.error = GuestError::make(
        errc::kCycleBudget,
        "guest did not run to completion within " +
            std::to_string(config.max_cycles) + " simulated cycles");
    return out;
  }
  return out;
}

bench::MeasuredRun to_measured_run(const GuestRunResult& result) {
  bench::MeasuredRun run = bench::to_measured_run(result.stats, result.machine);
  // The sim window is the budget ceiling; the guest finished at its last
  // retirement, so that is the run's duration.
  run.duration_cycles = static_cast<double>(result.completion_cycles);
  return run;
}

}  // namespace am::guest
