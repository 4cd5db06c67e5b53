// Machine configuration for the simulator, and the two presets that stand in
// for the paper's testbeds.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "atomics/primitives.hpp"
#include "sim/energy_model.hpp"
#include "sim/interconnect.hpp"
#include "sim/types.hpp"

namespace am::sim {

enum class InterconnectKind : std::uint8_t { kTwoSocket, kMesh, kUniform };

/// Deliberate protocol defects, used only by the conformance harness to
/// prove the differential oracle catches real coherence bugs. kNone is the
/// only mode benchmarks and experiments ever run.
enum class FaultInjection : std::uint8_t {
  kNone,
  /// An exclusive request by a core holding the line Shared is served from
  /// the stale local copy without the upgrade round-trip, and the write-back
  /// is dropped — the classic lost-update window of a skipped S->M upgrade.
  kLostUpgradeWrite,
  /// An upgrade from Shared takes ownership without invalidating the other
  /// sharers, leaving Shared copies alive next to an M owner.
  kSkipSharedInvalidate,
};

const char* to_string(FaultInjection f) noexcept;

/// Memory-consistency model the machine simulates. kSc is the seed-era
/// behaviour (every op applies at its completion event, so the global
/// completion order is sequentially consistent). kTso adds per-core FIFO
/// store buffers with same-core load forwarding — stores retire locally and
/// drain to the directory later (at a fence, an RMW, buffer overflow, or
/// thread exit), which is the x86-TSO behaviour the paper's testbeds
/// actually have. docs/memory_models.md has the semantics and the
/// byte-identity story.
enum class MemoryModel : std::uint8_t { kSc = 0, kTso = 1 };

const char* to_string(MemoryModel m) noexcept;
std::optional<MemoryModel> parse_memory_model(const std::string& name) noexcept;

struct MachineConfig {
  std::string name = "machine";
  double freq_ghz = 2.3;

  // --- topology -----------------------------------------------------------
  InterconnectKind interconnect = InterconnectKind::kUniform;
  CoreId cores = 4;            ///< total cores (kUniform / per-preset)
  std::uint32_t mesh_width = 0;   ///< kMesh only
  std::uint32_t mesh_height = 0;  ///< kMesh only

  // --- latencies (cycles) --------------------------------------------------
  Cycles l1_hit = 4;            ///< op on a line already held in adequate state
  Cycles same_socket_xfer = 70; ///< cache-to-cache, one socket (kTwoSocket)
  Cycles cross_socket_xfer = 180;  ///< cache-to-cache across QPI (kTwoSocket)
  Cycles mesh_base_xfer = 120;  ///< kMesh: transfer latency at distance 0+
  Cycles mesh_per_hop = 4;      ///< kMesh: added per Manhattan hop
  std::uint32_t mesh_near_hops = 4;  ///< kMesh: <= this many hops -> kNear
  Cycles uniform_xfer = 100;    ///< kUniform
  Cycles memory_fill = 230;     ///< line present in no cache
  Cycles shared_supply = 40;    ///< LOAD served from LLC/sharer without ownership change

  /// Execution cost of each primitive once the line is held in a sufficient
  /// state (indexed by Primitive). Lock-prefixed RMWs cost ~20 cycles even
  /// uncontended; plain load/store retire in a few.
  std::array<Cycles, 7> exec_cost = {1, 1, 20, 20, 20, 24, 24};

  Arbitration arbitration = Arbitration::kFifo;
  /// Anti-starvation for kNearestFirst: a request older than this many
  /// cycles is served ahead of nearer newcomers (real fabrics bound bypass).
  /// 0 means strict nearest-first (total starvation possible).
  Cycles arbitration_age_limit = 1500;
  /// Temperature of kProximityBiased: grant weight = exp(-distance/bias).
  /// Smaller -> stronger locality bias.
  double arbitration_bias = 1.0;

  /// Per-core private cache capacity in lines (LRU). Large enough by default
  /// that only the capacity tests exercise eviction.
  std::uint32_t cache_capacity_lines = 1u << 20;

  EnergyParams energy{};

  /// Placement permutation: workload (logical) core i runs on physical core
  /// placement[i]. Empty = identity (compact/natural order). Built by
  /// placement_for() from a PinOrder.
  std::vector<CoreId> placement;

  /// Verify MESI invariants (single writer, no duplicate sharers, owner
  /// consistency) after every directory transaction. O(sharers) per grant;
  /// enabled by the protocol stress tests, off for benchmarks.
  bool paranoid_checks = false;

  /// Injected protocol defect (conformance-harness self-tests only).
  FaultInjection fault = FaultInjection::kNone;

  /// Memory-consistency model. kSc (default) is byte-identical to the seed
  /// core; the TSO fields below only take effect — and only enter the
  /// fingerprint — when this is kTso.
  MemoryModel memory_model = MemoryModel::kSc;

  /// Cost of a FENCE once the issuing core's store buffer is empty (the
  /// drain itself is priced by the usual transfer/serve machinery). Roughly
  /// an mfence: ~33 cycles on Haswell-era parts (Schweizer et al.).
  Cycles fence_cost = 33;

  /// Store-buffer capacity in entries (x86 parts have 42-56; a small default
  /// keeps overflow-forced drains reachable in tests). kTso only.
  std::uint32_t store_buffer_entries = 8;

  Cycles exec_cost_of(Primitive p) const noexcept {
    if (p == Primitive::kFence) return fence_cost;
    return exec_cost[static_cast<std::size_t>(p)];
  }

  /// Builds the interconnect this config describes.
  std::unique_ptr<Interconnect> make_interconnect() const;

  /// Total core count implied by the topology fields.
  CoreId core_count() const noexcept;

  /// Serializes every field that affects simulation results into a stable
  /// string. The sweep result cache hashes this into its keys, so two
  /// configs with the same fingerprint must simulate identically.
  std::string fingerprint() const;
};

/// Preset approximating a 2-socket, 18-core-per-socket Intel Xeon E5 v3/v4
/// (the paper's first testbed): 2.3 GHz, ~70-cycle intra-socket and
/// ~180-cycle cross-socket cache-to-cache transfers.
MachineConfig xeon_e5_2x18();

/// Preset approximating an Intel Xeon Phi 7210/7290 (KNL, the paper's second
/// testbed): 64 tiles on an 8x8 mesh at 1.3-1.5 GHz, higher base transfer
/// latency, latency growing with mesh distance, higher RMW cost.
MachineConfig knl_64();

/// Small uniform machine for unit tests: every latency is a round number so
/// tests can assert exact cycle counts.
MachineConfig test_machine(CoreId cores, Cycles xfer = 100, Cycles l1 = 4,
                           Cycles mem = 200);

/// The canonical preset names: the one list requests, `sim:<preset>` specs
/// and the conformance fuzzer's --preset name machines from.
inline constexpr std::array<std::string_view, 3> kPresetNames = {"xeon", "knl",
                                                                 "test"};

/// kPresetNames joined by @p separator, for error messages.
std::string preset_names(std::string_view separator);

/// Looks up a preset by name or alias: "xeon" ("e5", "xeon-e5-2x18"), "knl"
/// ("phi", "knl-64"), "test" ("test-uniform": test_machine(4)). Throws
/// std::invalid_argument for any other name instead of substituting one.
MachineConfig preset_by_name(const std::string& name);

/// Builds a placement permutation over @p cores physical cores:
///   compact  -> identity (fill the first socket/mesh rows first)
///   scatter  -> interleave the two machine halves (alternating sockets on
///               the Xeon; alternating mesh halves on KNL)
std::vector<CoreId> placement_for(CoreId cores, bool scatter);

}  // namespace am::sim
