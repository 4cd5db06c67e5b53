// Result records produced by a simulation run.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "atomics/primitives.hpp"
#include "common/stats.hpp"
#include "sim/energy_model.hpp"
#include "sim/types.hpp"

namespace am::sim {

/// Per-core measurement-window counters.
struct ThreadStats {
  std::uint64_t ops = 0;        ///< completed operations (CASLOOP counts once)
  std::uint64_t successes = 0;  ///< ops whose primitive reported success
  std::uint64_t failures = 0;   ///< failed single-shot CAS / TAS-already-set
  /// Per-primitive completion/success counts (indexed by Primitive) — lets
  /// composite workloads (lock protocols) separate acquisitions from spins.
  std::array<std::uint64_t, 7> ops_by_prim{};
  std::array<std::uint64_t, 7> successes_by_prim{};
  std::uint64_t attempts = 0;   ///< line acquisitions (CASLOOP retries add up)
  Cycles exec_cycles = 0;       ///< cycles executing primitives
  Cycles wait_cycles = 0;       ///< cycles stalled on queueing + transfer
  Cycles work_cycles = 0;       ///< cycles of configured local work
  double latency_sum = 0.0;     ///< sum of per-op latencies (cycles)
  Cycles latency_min = 0;
  Cycles latency_max = 0;
  /// Log-spaced latency histogram (1 cycle .. 100M cycles) for tail
  /// percentiles; always collected (completions are rare next to events).
  LogHistogram latency_hist{LogHistogram::kCycleLo, LogHistogram::kCycleHi,
                            LogHistogram::kCyclePerDecade};

  double mean_latency() const noexcept {
    return ops == 0 ? 0.0 : latency_sum / static_cast<double>(ops);
  }
};

/// Per-line contention profile over the measurement window (collected when
/// Machine::set_line_profiling(true) is set before the run). This is the
/// per-resource breakdown that localizes an atomic bottleneck: which lines
/// are hot, how deep their grant queues ran, and which supply classes
/// served them.
struct LineProfile {
  LineId line = 0;
  std::uint64_t accesses = 0;      ///< ops served on the line (incl. L1 hits)
  std::uint64_t acquisitions = 0;  ///< line-slot grants (exclusive accesses)
  std::uint64_t invalidations = 0; ///< copies killed by other cores' RFOs
  std::uint64_t queue_depth_sum = 0;  ///< waiters left queued, summed at grant
  std::uint32_t queue_depth_max = 0;  ///< deepest queue seen at a grant
  Cycles hold_cycles = 0;          ///< cycles the line slot was held, summed
  /// Accesses by supply class (index == Supply).
  std::array<std::uint64_t, kSupplyClasses> supply{};

  double mean_queue_depth() const noexcept {
    return acquisitions == 0 ? 0.0
                             : static_cast<double>(queue_depth_sum) /
                                   static_cast<double>(acquisitions);
  }
  double mean_hold_cycles() const noexcept {
    return acquisitions == 0 ? 0.0
                             : static_cast<double>(hold_cycles) /
                                   static_cast<double>(acquisitions);
  }
};

/// One window of the epoch time-series (collected when
/// Machine::set_epoch_cycles(w) is set with w > 0). Makes regime
/// transitions — the paper's low-to-high contention crossover — visible
/// inside a single run instead of only as an end-of-run aggregate.
struct EpochSample {
  Cycles start = 0;  ///< offset of the epoch start inside the measure window
  std::uint64_t ops = 0;       ///< operations completed in the epoch
  std::uint64_t attempts = 0;  ///< line acquisitions in the epoch
  Cycles wait_cycles = 0;      ///< queueing + transfer stall charged
  Cycles exec_cycles = 0;      ///< primitive execution cycles charged
  std::uint32_t outstanding_max = 0;  ///< peak in-flight requests observed

  double throughput_ops_per_kcycle(Cycles window) const noexcept {
    return window == 0 ? 0.0
                       : static_cast<double>(ops) * 1000.0 /
                             static_cast<double>(window);
  }
  /// Fraction of the epoch's aggregate core-cycles spent stalled.
  double wait_fraction(Cycles window, std::uint32_t cores) const noexcept {
    const double denom = static_cast<double>(window) * cores;
    return denom <= 0.0 ? 0.0 : static_cast<double>(wait_cycles) / denom;
  }
};

/// Whole-run results over the measurement window.
struct RunStats {
  Cycles measured_cycles = 0;  ///< length of the measurement window
  double freq_ghz = 1.0;
  std::vector<ThreadStats> threads;

  /// Line transfers by supply class (index == Supply).
  std::array<std::uint64_t, kSupplyClasses> transfers{};
  std::uint64_t invalidations = 0;
  std::uint64_t memory_fetches = 0;
  std::uint64_t evictions = 0;
  /// TSO only; both stay 0 under SC (reports/digests print named fields, so
  /// appending counters here does not disturb existing serialized output).
  std::uint64_t store_buffer_drains = 0;  ///< buffered stores written back
  std::uint64_t fences = 0;               ///< FENCE ops retired

  /// Hot-line profiles, hottest (most acquisitions) first. Empty unless
  /// line profiling was enabled for the run.
  std::vector<LineProfile> line_profiles;

  /// Epoch time-series; empty unless epoch sampling was enabled.
  Cycles epoch_cycles = 0;  ///< sampling window (0 = sampling was off)
  std::vector<EpochSample> epochs;

  EnergyBreakdown energy;

  // --- derived -------------------------------------------------------------
  std::uint64_t total_ops() const noexcept;
  std::uint64_t total_successes() const noexcept;
  std::uint64_t total_attempts() const noexcept;

  /// System throughput in operations per 1000 cycles.
  double throughput_ops_per_kcycle() const noexcept;
  /// System throughput in million operations per second (uses freq_ghz).
  double throughput_mops() const noexcept;
  /// Mean per-op latency across all threads, cycles.
  double mean_latency_cycles() const noexcept;
  /// Success fraction (successes / ops); 1.0 for primitives that cannot fail.
  double success_rate() const noexcept;
  /// Jain fairness index over per-thread completed ops.
  double jain_fairness_ops() const;
  /// min/max per-thread ops ratio.
  double min_max_ops_ratio() const;
  /// Energy per completed operation, nanojoules.
  double energy_per_op_nj() const noexcept;

  /// Per-thread op counts as doubles (fairness helpers).
  std::vector<double> per_thread_ops() const;
};

}  // namespace am::sim
