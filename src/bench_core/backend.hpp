// ExecutionBackend: the seam between the experiments and the machinery that
// runs them.
//
// Every bench binary is written against this interface and can therefore run
// on real hardware threads (HardwareBackend) or on the coherence simulator
// (SimBackend) unchanged. The "auto" backend spec implements the repo's
// policy: simulator presets stand in for the paper's 36/64-core testbeds
// whenever the host lacks the cores to produce meaningful contention.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench_core/result.hpp"
#include "bench_core/workload.hpp"
#include "sim/config.hpp"

namespace am::bench {

/// One measurement recorded by the backend seam.
struct RecordedRun;

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Runs one workload to completion and returns its measurements.
  /// Non-virtual: delegates to do_run() and appends the (workload, result)
  /// pair to the process-wide run log, which the JSON run-report writer
  /// serializes — every bench binary gets --json-out without touching its
  /// measurement loop. With a run recorder attached (set_run_recorder) the
  /// pair goes to the recorder instead; the sweep engine uses this to merge
  /// pool results back into the global log in submission order.
  MeasuredRun run(const WorkloadConfig& config);

  /// Redirects run() recording into @p sink (not owned; nullptr restores the
  /// process-wide log). A recorder is owned by exactly one task, so appends
  /// to it are unsynchronized by design.
  void set_run_recorder(std::vector<RecordedRun>* sink) noexcept {
    recorder_ = sink;
  }

  /// "sim" or "hw".
  virtual std::string name() const = 0;
  /// Machine this backend models/runs on.
  virtual std::string machine_name() const = 0;
  /// Largest thread count the backend can place.
  virtual std::uint32_t max_threads() const = 0;
  /// Nominal core frequency, for cycle <-> time conversions.
  virtual double freq_ghz() const = 0;

  /// Stable string identifying everything that determines this backend's
  /// results besides the workload and seed — machine config, measurement
  /// windows. Cache keys for the sweep result cache hash this; backends
  /// whose runs are not reproducible (hw) return "" to opt out of caching.
  virtual std::string cache_identity() const { return ""; }

 protected:
  /// Backend-specific measurement; implemented by each backend.
  virtual MeasuredRun do_run(const WorkloadConfig& config) = 0;

 private:
  std::vector<RecordedRun>* recorder_ = nullptr;
};

struct RecordedRun {
  WorkloadConfig workload;
  MeasuredRun run;
};

/// Process-wide log of every workload executed through ExecutionBackend::run,
/// in execution order. Cleared with clear_run_log() (tests). Appends and
/// clears are mutex-protected; reading the returned reference is only safe
/// once no backend is running (bench binaries read it after their sweeps
/// drain).
const std::vector<RecordedRun>& run_log();
void clear_run_log();
/// Appends @p rec to the process-wide run log (thread-safe). The sweep
/// engine flushes pooled results through this in submission order.
void append_run_log(RecordedRun rec);

/// A parsed backend spec: the host's hardware, or one simulated machine.
struct BackendSpec {
  bool hw = false;
  std::string preset;          ///< as named ("xeon" for bare "sim"); "" = hw
  sim::MachineConfig machine;  ///< memory model included; unused when hw
};

/// The one parser of backend specs (--backend, GuestRunConfig::backend):
///   "sim[:<preset>[:sc|:tso]]" -> a sim::preset_by_name() preset (default
///                                 xeon) under a memory model (default sc)
///   "hw"                       -> HardwareBackend on this host
///   "auto"                     -> hw when the host has >= 8 cores,
///                                 otherwise sim:xeon
/// Throws std::invalid_argument for anything else, so no caller runs a
/// machine the spec does not name.
BackendSpec parse_backend_spec(const std::string& spec);

/// Builds the backend @p spec names. @p seed seeds simulator backends
/// (ignored by hw); the sweep engine derives one per grid point so every
/// point is independently replayable. The string form parses first.
std::unique_ptr<ExecutionBackend> make_backend(const BackendSpec& spec,
                                               std::uint64_t seed = 1);
std::unique_ptr<ExecutionBackend> make_backend(const std::string& spec,
                                               std::uint64_t seed = 1);

}  // namespace am::bench
