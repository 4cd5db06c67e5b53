// Low-level CPU helpers: timestamp counter access, pause/relax hints and
// TSC-frequency calibration.
//
// The hardware measurement backend times individual atomic operations with
// the TSC (the same methodology the paper uses); the calibration routine maps
// TSC ticks to nanoseconds so results are comparable with the simulator's
// cycle-denominated output.
#pragma once

#include <cstdint>

namespace am {

/// Serializing read of the timestamp counter (RDTSCP ordering semantics on
/// x86; falls back to a monotonic clock elsewhere). Suitable for the *end*
/// of a timed region.
std::uint64_t rdtscp() noexcept;

/// Plain RDTSC (may execute early relative to preceding loads). Suitable for
/// the *start* of a timed region when combined with a fence.
std::uint64_t rdtsc() noexcept;

/// Pause/spin-wait hint (x86 `pause`). Reduces the power drawn by a spinning
/// hardware thread and frees pipeline resources for its SMT sibling, exactly
/// as the paper's spin loops do.
void cpu_relax() noexcept;

/// Full compiler barrier: prevents the optimizer from hoisting or sinking
/// memory operations across a measurement boundary.
inline void compiler_barrier() noexcept { asm volatile("" ::: "memory"); }

/// Defeats dead-code elimination of a computed value.
template <typename T>
inline void do_not_optimize(T const& value) noexcept {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Estimated TSC frequency in Hz, measured once against the steady clock
/// (~10 ms calibration on first call, cached afterwards).
double tsc_frequency_hz();

}  // namespace am
