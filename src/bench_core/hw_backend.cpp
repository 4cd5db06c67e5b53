#include "bench_core/hw_backend.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "atomics/padded.hpp"
#include "atomics/primitives.hpp"
#include "common/affinity.hpp"
#include "common/barrier.hpp"
#include "common/cacheline.hpp"
#include "common/cpu.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "perfmon/perf_events.hpp"
#include "perfmon/rapl.hpp"

namespace am::bench {

namespace {

/// Busy loop of roughly @p n cycles (one dependent add per iteration).
inline void spin_work(std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) compiler_barrier();
}

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

struct alignas(kNoFalseSharingAlign) WorkerSlot {
  std::uint64_t ops = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t attempts = 0;
  std::array<std::uint64_t, 7> ops_by_prim{};
  std::array<std::uint64_t, 7> successes_by_prim{};
  std::vector<double> latency_samples;
  bool counters_reset = false;
  bool pinned = false;
  std::uint64_t perf_cycles = 0;
  std::uint64_t perf_instructions = 0;
  bool perf_valid = false;
};

}  // namespace

HardwareBackend::HardwareBackend(HwBackendOptions options)
    : options_(options), topology_(Topology::discover()) {}

std::uint32_t HardwareBackend::max_threads() const {
  return std::max(1u, std::thread::hardware_concurrency());
}

double HardwareBackend::freq_ghz() const { return tsc_frequency_hz() / 1e9; }

MeasuredRun HardwareBackend::do_run(const WorkloadConfig& config) {
  const std::uint32_t n = config.threads;
  // Shared cells: high contention uses cell 0; low contention cell tid;
  // zipf uses zipf_lines cells.
  std::size_t cell_count = 1;
  switch (config.mode) {
    case WorkloadMode::kZipf: cell_count = config.zipf_lines; break;
    case WorkloadMode::kLowContention: cell_count = n; break;
    case WorkloadMode::kSharded:
      cell_count = std::max<std::size_t>(1, config.shards);
      break;
    case WorkloadMode::kPrivateWalk:
      cell_count = std::max<std::uint64_t>(1, config.lines_per_thread) * n;
      break;
    default: cell_count = 1; break;
  }
  CellArray cells(cell_count);
  cells.fill(0);

  SpinBarrier barrier(n + 1);
  std::atomic<int> phase{kWarmup};
  std::atomic<std::uint32_t> measuring{0};  // workers that saw kMeasure
  std::vector<WorkerSlot> slots(n);
  const auto pin_seq = topology_.pin_sequence(config.pin_order);
  const std::uint64_t sample_mask =
      (std::uint64_t{1} << options_.latency_sample_shift) - 1;

  auto worker = [&](std::uint32_t tid) {
    WorkerSlot& slot = slots[tid];
    if (options_.pin_threads && !pin_seq.empty()) {
      slot.pinned = pin_current_thread(
          pin_seq[tid % pin_seq.size()]);
    }
    Xoshiro256 rng(config.seed * 0x9e3779b9ULL + tid);
    OpContext ctx;
    // Per-thread hardware counters around the measurement epoch.
    std::optional<PerfCounterGroup> perf;
    if (options_.collect_perf_counters) {
      perf.emplace(std::vector<PerfEvent>{PerfEvent::kCycles,
                                          PerfEvent::kInstructions});
    }
    // ZipfSampler construction allocates; do it before the barrier.
    ZipfSampler zipf(config.mode == WorkloadMode::kZipf ? config.zipf_lines : 1,
                     config.mode == WorkloadMode::kZipf ? config.zipf_s : 0.0);
    slot.latency_samples.reserve(1 << 16);

    barrier.arrive_and_wait();

    std::uint64_t local_ops = 0;
    std::uint64_t walk_cursor = 0;
    while (true) {
      const int ph = phase.load(std::memory_order_acquire);
      if (ph == kStop) break;
      if (ph == kMeasure && !slot.counters_reset) {
        slot.ops = slot.successes = slot.failures = slot.attempts = 0;
        slot.ops_by_prim.fill(0);
        slot.successes_by_prim.fill(0);
        slot.latency_samples.clear();
        slot.counters_reset = true;
        if (perf && perf->available()) {
          perf->reset();
          perf->enable();
        }
        measuring.fetch_add(1, std::memory_order_release);
      }

      // Pick the target cell for this op.
      std::size_t idx = 0;
      Primitive prim = config.prim;
      switch (config.mode) {
        case WorkloadMode::kHighContention: idx = 0; break;
        case WorkloadMode::kLowContention: idx = tid % cell_count; break;
        case WorkloadMode::kZipf: idx = zipf.sample(rng); break;
        case WorkloadMode::kMixedReadWrite:
          idx = 0;
          if (rng.next_double() >= config.write_fraction) {
            prim = Primitive::kLoad;
          }
          break;
        case WorkloadMode::kSharded: {
          const std::uint32_t shards = std::max<std::uint32_t>(1, config.shards);
          const std::uint32_t group = (n + shards - 1) / shards;
          idx = tid / group;  // contiguous groups: shard locality
          break;
        }
        case WorkloadMode::kPrivateWalk: {
          const std::uint64_t lines =
              std::max<std::uint64_t>(1, config.lines_per_thread);
          idx = tid * lines + walk_cursor;
          walk_cursor = (walk_cursor + 1) % lines;
          break;
        }
      }

      OpResult r;
      const bool sampled = (local_ops & sample_mask) == 0;
      if (sampled) {
        const std::uint64_t t0 = rdtscp();
        r = execute(prim, cells[idx], ctx);
        const std::uint64_t t1 = rdtscp();
        slot.latency_samples.push_back(static_cast<double>(t1 - t0));
      } else {
        r = execute(prim, cells[idx], ctx);
      }
      ++local_ops;
      ++slot.ops;
      slot.attempts += r.attempts;
      const auto pi = static_cast<std::size_t>(prim);
      ++slot.ops_by_prim[pi];
      if (r.success) {
        ++slot.successes;
        ++slot.successes_by_prim[pi];
      } else {
        ++slot.failures;
      }

      if (config.work > 0) {
        std::uint64_t w = config.work;
        if (config.work_jitter > 0.0) {
          const double lo = static_cast<double>(w) * (1.0 - config.work_jitter);
          const double span =
              2.0 * static_cast<double>(w) * config.work_jitter;
          w = static_cast<std::uint64_t>(lo + rng.next_double() * span);
        }
        spin_work(w);
      }
    }
    if (perf && perf->available()) {
      perf->disable();
      const PerfSample sample = perf->read();
      if (const auto v = sample.get(PerfEvent::kCycles)) {
        slot.perf_cycles = *v;
        slot.perf_valid = true;
      }
      if (const auto v = sample.get(PerfEvent::kInstructions)) {
        slot.perf_instructions = *v;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) threads.emplace_back(worker, t);

  Rapl rapl;
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::duration<double>(options_.warmup_s));
  phase.store(kMeasure, std::memory_order_release);
  // Open the window once every worker has reset its counters; a worker
  // scheduled late would otherwise count a few ops against all of it.
  while (measuring.load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }
  const EnergyReading e0 = rapl.read();
  const std::uint64_t c0 = rdtscp();
  std::this_thread::sleep_for(std::chrono::duration<double>(options_.measure_s));
  phase.store(kStop, std::memory_order_release);
  const std::uint64_t c1 = rdtscp();
  const EnergyReading e1 = rapl.read();
  for (auto& t : threads) t.join();

  MeasuredRun result;
  result.backend = "hw";
  result.machine = "host";
  result.duration_cycles = static_cast<double>(c1 - c0);
  result.freq_ghz = freq_ghz();
  result.threads.reserve(n);
  for (const auto& slot : slots) {
    if (slot.perf_valid) {
      result.perf_valid = true;
      result.perf_cycles += slot.perf_cycles;
      result.perf_instructions += slot.perf_instructions;
    }
    ThreadResult tr;
    tr.ops = slot.ops;
    tr.successes = slot.successes;
    tr.failures = slot.failures;
    tr.attempts = slot.attempts;
    tr.ops_by_prim = slot.ops_by_prim;
    tr.successes_by_prim = slot.successes_by_prim;
    if (!slot.latency_samples.empty()) {
      const Summary s = summarize(slot.latency_samples);
      tr.mean_latency_cycles = s.mean;
      tr.p99_latency_cycles = s.p99;
      tr.latency_tail_valid = true;
    }
    result.threads.push_back(tr);
  }
  if (rapl.available()) {
    const EnergyReading delta = e1 - e0;
    result.energy_valid = delta.package_valid;
    result.energy_package_j = delta.package_j;
    result.energy_dram_j = delta.dram_j;
  }
  return result;
}

}  // namespace am::bench
