// The atomic primitives under study, expressed uniformly over
// std::atomic<std::uint64_t>.
//
// The paper studies the hardware read-modify-write instructions x86 exposes:
//   CAS  (lock cmpxchg)  — single attempt; can fail under contention
//   FAA  (lock xadd)     — unconditional fetch-and-add, always succeeds
//   SWP  (xchg)          — unconditional exchange
//   TAS  (lock bts/xchg) — test-and-set of one bit/byte
// plus plain atomic LOAD and STORE as the no-RMW baselines, and CASLOOP —
// fetch-and-add emulated with a CAS retry loop — as the canonical software
// pattern whose cost the model explains.
//
// All executors return an OpResult so CAS success/failure can be accounted
// separately, which the paper's CAS figures require.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace am {

enum class Primitive : std::uint8_t {
  kLoad = 0,
  kStore,
  kSwap,
  kTas,
  kFaa,
  kCas,
  kCasLoop,
  /// Full memory fence (mfence): drains the issuing core's store buffer
  /// under the simulator's TSO mode; a compiler/CPU ordering barrier on the
  /// hardware executor. Deliberately NOT in kAllPrimitives — per-primitive
  /// arrays (exec_cost, ThreadStats::ops_by_prim) and their serialized forms
  /// are 7 wide, and widening them would break the fingerprint/digest
  /// byte-identity contract. Fence cost lives in MachineConfig::fence_cost.
  kFence,
};

/// The seven line-targeting primitives of the paper. Drives sweep loops and
/// the 7-wide per-primitive stats/cost arrays; kFence is excluded (see its
/// comment above).
inline constexpr Primitive kAllPrimitives[] = {
    Primitive::kLoad, Primitive::kStore, Primitive::kSwap,  Primitive::kTas,
    Primitive::kFaa,  Primitive::kCas,   Primitive::kCasLoop,
};

/// Primitives that need exclusive (M-state) ownership of the line. LOAD can
/// complete on a Shared copy; FENCE targets no line at all.
constexpr bool needs_exclusive(Primitive p) noexcept {
  return p != Primitive::kLoad && p != Primitive::kFence;
}

const char* to_string(Primitive p) noexcept;
std::optional<Primitive> parse_primitive(const std::string& name) noexcept;

/// Outcome of one primitive invocation.
struct OpResult {
  bool success = true;          ///< false only for a failed single-shot CAS
  std::uint64_t observed = 0;   ///< value read/returned by the primitive
  std::uint32_t attempts = 1;   ///< >1 only for CASLOOP
};

/// Per-thread execution context for the value-dependent primitives.
/// CAS needs the thread's *expectation* of the current value; keeping it
/// here (seeded by an initial load) reproduces the read-then-CAS pattern
/// real code uses, so the measured/simulated failure rate is meaningful.
struct OpContext {
  std::uint64_t expected = 0;   ///< CAS expectation, updated on every attempt
  std::uint64_t store_value = 1;///< value used by STORE/SWP
  /// When set, a successful CAS writes this instead of expected + 1
  /// (pointer-style CAS, e.g. an MCS tail swing).
  std::optional<std::uint64_t> cas_desired;
};

/// Executes one invocation of @p p on @p cell. Never allocates, never
/// blocks; a CASLOOP spins internally until it succeeds.
OpResult execute(Primitive p, std::atomic<std::uint64_t>& cell,
                 OpContext& ctx) noexcept;

/// All primitives as a span (handy for sweep loops in benches/tests).
std::span<const Primitive> all_primitives() noexcept;

}  // namespace am
