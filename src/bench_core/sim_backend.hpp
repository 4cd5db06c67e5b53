// SimBackend: runs workloads on the discrete-event coherence machine.
#pragma once

#include <memory>
#include <string>

#include "bench_core/backend.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"

namespace am::bench {

struct SimBackendOptions {
  sim::Cycles warmup_cycles = 50'000;
  sim::Cycles measure_cycles = 250'000;
  /// Per-run watchdog. Deliberately NOT part of cache_identity(): the
  /// watchdog never changes a result, only whether a run is allowed to
  /// finish, so cached points stay valid across budget changes.
  sim::WatchdogConfig watchdog{};
};

/// The cache_identity() string a SimBackend built from @p config/@p options
/// would report, without constructing one, so a caller can address the
/// disk cache without building the backend.
inline std::string sim_backend_cache_identity(const sim::MachineConfig& config,
                                              const SimBackendOptions& options) {
  return "sim{" + config.fingerprint() +
         "};warmup=" + std::to_string(options.warmup_cycles) +
         ";measure=" + std::to_string(options.measure_cycles);
}

/// The watchdog of a --max-point-cycles budget: 0 = auto (64x the
/// warmup+measure window, so only a genuine runaway trips it), negative =
/// off. The livelock detector rides along whenever the budget is armed.
inline sim::WatchdogConfig watchdog_for_budget(std::int64_t budget,
                                               const SimBackendOptions& o) {
  sim::WatchdogConfig wd;
  if (budget < 0) return wd;
  wd.max_cycles = budget > 0 ? static_cast<sim::Cycles>(budget)
                             : 64 * (o.warmup_cycles + o.measure_cycles);
  wd.progress_events = 1'000'000;
  return wd;
}

class SimBackend final : public ExecutionBackend {
 public:
  explicit SimBackend(sim::MachineConfig config, SimBackendOptions options = {},
                      std::uint64_t seed = 1);

  std::string name() const override { return "sim"; }
  std::string machine_name() const override { return config_.name; }
  std::uint32_t max_threads() const override { return config_.core_count(); }
  double freq_ghz() const override { return config_.freq_ghz; }
  /// Machine fingerprint + measurement windows: everything besides the
  /// workload and seed that determines a simulated result.
  std::string cache_identity() const override {
    return sim_backend_cache_identity(config_, options_);
  }
  /// Seed this backend XORs into every run's machine seed.
  std::uint64_t seed() const noexcept { return seed_; }

  const sim::MachineConfig& machine_config() const { return config_; }
  const SimBackendOptions& options() const { return options_; }

  // --- observability configuration -----------------------------------------
  // Each do_run() builds a fresh machine, so these are stored here and
  // re-applied per run; they also enrich the MeasuredRun (hot_lines, epochs).

  /// Collect per-line contention profiles into MeasuredRun::hot_lines.
  void set_line_profiling(bool on) { profile_lines_ = on; }
  /// Sample the run as an epoch time-series (MeasuredRun::epochs); 0 = off.
  void set_epoch_cycles(sim::Cycles window) { epoch_cycles_ = window; }
  /// Attach an external trace sink (not owned; nullptr detaches). Takes
  /// precedence over set_trace_file().
  void set_sink(obs::TraceSink* sink) { sink_ = sink; }
  /// Stream Chrome trace-event JSON for every run to @p path (empty string
  /// disables). Returns false when the file cannot be opened.
  bool set_trace_file(const std::string& path);
  /// Override the watchdog for subsequent runs (see SimBackendOptions).
  void set_watchdog(sim::WatchdogConfig wd) { options_.watchdog = wd; }

 private:
  MeasuredRun do_run(const WorkloadConfig& config) override;

  sim::MachineConfig config_;
  SimBackendOptions options_;
  std::uint64_t seed_;

  bool profile_lines_ = false;
  sim::Cycles epoch_cycles_ = 0;
  obs::TraceSink* sink_ = nullptr;
  std::unique_ptr<obs::ChromeTraceFileSink> trace_file_;
};

/// Converts simulator run stats into the backend-independent record.
MeasuredRun to_measured_run(const sim::RunStats& stats,
                            const std::string& machine);

}  // namespace am::bench
