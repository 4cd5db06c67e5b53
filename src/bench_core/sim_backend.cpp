#include "bench_core/sim_backend.hpp"

#include <stdexcept>

#include "sim/program.hpp"

namespace am::bench {

SimBackend::SimBackend(sim::MachineConfig config, SimBackendOptions options,
                       std::uint64_t seed)
    : config_(std::move(config)), options_(options), seed_(seed) {}

bool SimBackend::set_trace_file(const std::string& path) {
  if (path.empty()) {
    trace_file_.reset();
    return true;
  }
  trace_file_ = std::make_unique<obs::ChromeTraceFileSink>(path);
  if (!trace_file_->ok()) {
    trace_file_.reset();
    return false;
  }
  return true;
}

MeasuredRun to_measured_run(const sim::RunStats& stats,
                            const std::string& machine) {
  MeasuredRun r;
  r.backend = "sim";
  r.machine = machine;
  r.duration_cycles = static_cast<double>(stats.measured_cycles);
  r.freq_ghz = stats.freq_ghz;
  r.threads.reserve(stats.threads.size());
  for (const auto& t : stats.threads) {
    ThreadResult tr;
    tr.ops = t.ops;
    tr.successes = t.successes;
    tr.failures = t.failures;
    tr.attempts = t.attempts;
    tr.mean_latency_cycles = t.mean_latency();
    tr.latency_tail_valid = t.latency_hist.total_count() > 0;
    tr.p99_latency_cycles =
        tr.latency_tail_valid ? t.latency_hist.value_at_percentile(99.0) : 0.0;
    tr.ops_by_prim = t.ops_by_prim;
    tr.successes_by_prim = t.successes_by_prim;
    r.threads.push_back(tr);
  }
  r.transfers = stats.transfers;
  r.invalidations = stats.invalidations;
  r.memory_fetches = stats.memory_fetches;
  r.evictions = stats.evictions;
  r.hot_lines.reserve(stats.line_profiles.size());
  for (const auto& p : stats.line_profiles) {
    LineHotness h;
    h.line = p.line;
    h.accesses = p.accesses;
    h.acquisitions = p.acquisitions;
    h.invalidations = p.invalidations;
    h.mean_queue_depth = p.mean_queue_depth();
    h.max_queue_depth = p.queue_depth_max;
    h.mean_hold_cycles = p.mean_hold_cycles();
    h.supply = p.supply;
    r.hot_lines.push_back(h);
  }
  r.epoch_cycles = static_cast<double>(stats.epoch_cycles);
  r.epochs.reserve(stats.epochs.size());
  const auto cores = static_cast<std::uint32_t>(stats.threads.size());
  for (const auto& e : stats.epochs) {
    EpochPoint p;
    p.start_cycle = static_cast<double>(e.start);
    p.ops = e.ops;
    p.attempts = e.attempts;
    p.throughput_ops_per_kcycle =
        e.throughput_ops_per_kcycle(stats.epoch_cycles);
    p.wait_fraction = e.wait_fraction(stats.epoch_cycles, cores);
    p.outstanding_max = e.outstanding_max;
    r.epochs.push_back(p);
  }
  r.energy_valid = true;
  r.energy_package_j = stats.energy.package_j();
  r.energy_dram_j = stats.energy.dram_j();
  return r;
}

MeasuredRun SimBackend::do_run(const WorkloadConfig& config) {
  if (config.threads > max_threads()) {
    throw std::invalid_argument("SimBackend: workload needs " +
                                std::to_string(config.threads) +
                                " threads, machine has " +
                                std::to_string(max_threads()) + " cores");
  }
  // A fresh machine per run keeps runs independent and reproducible;
  // the per-workload seed keeps stochastic programs deterministic. The
  // workload's pin order maps to a placement permutation: scatter
  // interleaves the machine's halves so consecutive workload threads sit
  // on opposite sockets / mesh halves.
  sim::MachineConfig run_config = config_;
  run_config.placement = sim::placement_for(
      config_.core_count(), config.pin_order == PinOrder::kScatter);
  sim::Machine machine(run_config, seed_ ^ config.seed);
  machine.set_line_profiling(profile_lines_);
  machine.set_epoch_cycles(epoch_cycles_);
  machine.set_watchdog(options_.watchdog);
  if (sink_ != nullptr) {
    machine.set_sink(sink_);
  } else if (trace_file_ != nullptr) {
    machine.set_sink(trace_file_.get());
  }

  std::unique_ptr<sim::ThreadProgram> program;
  switch (config.mode) {
    case WorkloadMode::kHighContention:
      program = std::make_unique<sim::HighContentionProgram>(
          config.prim, config.work, 0, config.work_jitter);
      break;
    case WorkloadMode::kLowContention:
      program = std::make_unique<sim::LowContentionProgram>(config.prim,
                                                            config.work);
      break;
    case WorkloadMode::kZipf:
      program = std::make_unique<sim::ZipfSharingProgram>(
          config.prim, config.work, config.zipf_lines, config.zipf_s);
      break;
    case WorkloadMode::kMixedReadWrite:
      program = std::make_unique<sim::MixedReadWriteProgram>(
          config.prim, config.write_fraction, config.work);
      break;
    case WorkloadMode::kSharded: {
      // Contiguous groups of ceil(threads/shards) cores per shard keep each
      // shard's traffic topologically local.
      const std::uint32_t shards = std::max(1u, config.shards);
      const std::uint32_t group =
          (config.threads + shards - 1) / shards;
      program = std::make_unique<sim::ShardedProgram>(config.prim, config.work,
                                                      group);
      break;
    }
    case WorkloadMode::kPrivateWalk:
      program = std::make_unique<sim::PrivateWalkProgram>(
          config.prim, config.work, config.lines_per_thread);
      break;
  }

  const sim::RunStats stats = machine.run(
      *program, config.threads, options_.warmup_cycles, options_.measure_cycles);
  return to_measured_run(stats, config_.name);
}

}  // namespace am::bench
