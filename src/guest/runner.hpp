// The guest run driver: ELF bytes in, modeled contention profile out.
//
// Wires a GuestProgram onto a sim::Machine built from a preset spec
// ("sim:xeon", "sim:knl:tso", "sim:test"), arms the watchdog, and reads
// completion time from the machine's clock when run() returns: the last
// event the single-threaded discrete-event loop dispatched is the guest's
// last retirement, so that clock IS the completion cycle count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_core/backend.hpp"
#include "bench_core/result.hpp"
#include "guest/errors.hpp"
#include "guest/program.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/sim_stats.hpp"

namespace am::guest {

struct GuestRunConfig {
  /// Backend spec: "sim:xeon", "sim:knl", "sim:test", each optionally
  /// suffixed ":tso" (or ":sc", the default) to pick the memory model.
  std::string backend = "sim:xeon";
  std::uint32_t harts = 1;
  std::uint64_t seed = 1;
  /// Simulated-cycle ceiling; a guest still running at the ceiling is
  /// reported as errc::kCycleBudget.
  sim::Cycles max_cycles = 200'000'000;
  GuestConfig guest;             ///< interpreter limits (instruction budget …)
  GuestLimits limits;            ///< ELF/image caps
  obs::TraceSink* trace = nullptr;  ///< optional protocol-event sink
};

struct GuestRunResult {
  GuestError error;  ///< ok() when the guest ran to completion
  std::string machine;
  sim::MemoryModel memory_model = sim::MemoryModel::kSc;
  std::uint32_t harts = 0;
  std::uint64_t seed = 0;

  sim::RunStats stats;              ///< modeled atomics only (per sim core)
  sim::Cycles completion_cycles = 0;  ///< last retirement of the run
  std::vector<HartReport> hart_reports;
  std::string stdout_bytes;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_atomics = 0;
  std::uint64_t total_yields = 0;
  std::uint64_t total_sc_failures = 0;

  /// Guest instructions per simulated cycle (all harts).
  double instructions_per_cycle() const noexcept {
    return completion_cycles == 0
               ? 0.0
               : static_cast<double>(total_instructions) /
                     static_cast<double>(completion_cycles);
  }
  double atomics_per_kcycle() const noexcept {
    return completion_cycles == 0
               ? 0.0
               : static_cast<double>(total_atomics) * 1000.0 /
                     static_cast<double>(completion_cycles);
  }
};

/// bench::parse_backend_spec for guests: throws std::invalid_argument for
/// non-sim specs as well as unknown presets/models.
bench::BackendSpec parse_guest_backend(const std::string& spec);

/// Loads @p elf and runs it to completion (or to a budget/error). Never
/// throws; every failure mode lands in GuestRunResult::error.
GuestRunResult run_guest(const std::uint8_t* elf, std::size_t len,
                         const GuestRunConfig& config);

/// The guest run as a backend-independent MeasuredRun (duration is the
/// completion time, not the watchdog window), for the am-run-report/1
/// writer and bench tables.
bench::MeasuredRun to_measured_run(const GuestRunResult& result);

}  // namespace am::guest
