#include "sim/config.hpp"

#include <sstream>
#include <stdexcept>

namespace am::sim {

std::string MachineConfig::fingerprint() const {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "name=" << name << ";freq=" << freq_ghz
     << ";ic=" << static_cast<int>(interconnect) << ";cores=" << cores
     << ";mesh=" << mesh_width << "x" << mesh_height << ";l1=" << l1_hit
     << ";ss=" << same_socket_xfer << ";xs=" << cross_socket_xfer
     << ";mb=" << mesh_base_xfer << ";mh=" << mesh_per_hop
     << ";mn=" << mesh_near_hops << ";u=" << uniform_xfer
     << ";mem=" << memory_fill << ";sh=" << shared_supply << ";exec=";
  for (const Cycles c : exec_cost) os << c << ",";
  os << ";arb=" << static_cast<int>(arbitration)
     << ";age=" << arbitration_age_limit << ";bias=" << arbitration_bias
     << ";cap=" << cache_capacity_lines << ";energy=" << energy.core_active_watts
     << "," << energy.core_spin_watts << "," << energy.uncore_base_watts << ","
     << energy.transfer_nj_per_hop << "," << energy.transfer_nj_base << ","
     << energy.cross_link_nj << "," << energy.directory_nj << ","
     << energy.memory_nj << "," << energy.freq_ghz << ";placement=";
  for (const CoreId c : placement) os << c << ",";
  os << ";paranoid=" << paranoid_checks;
  // Appended only when active so fingerprints (and the sweep cache keys
  // hashed from them) of ordinary configs are unchanged.
  if (fault != FaultInjection::kNone) {
    os << ";fault=" << static_cast<int>(fault);
  }
  if (memory_model != MemoryModel::kSc) {
    os << ";mm=" << static_cast<int>(memory_model) << ";fence=" << fence_cost
       << ";sb=" << store_buffer_entries << ";fence_nj=" << energy.fence_nj;
  }
  return os.str();
}

const char* to_string(MemoryModel m) noexcept {
  switch (m) {
    case MemoryModel::kSc: return "sc";
    case MemoryModel::kTso: return "tso";
  }
  return "?";
}

std::optional<MemoryModel> parse_memory_model(
    const std::string& name) noexcept {
  if (name == "sc" || name == "SC") return MemoryModel::kSc;
  if (name == "tso" || name == "TSO" || name == "x86-tso") {
    return MemoryModel::kTso;
  }
  return std::nullopt;
}

const char* to_string(FaultInjection f) noexcept {
  switch (f) {
    case FaultInjection::kNone: return "none";
    case FaultInjection::kLostUpgradeWrite: return "lost-upgrade-write";
    case FaultInjection::kSkipSharedInvalidate: return "skip-shared-invalidate";
  }
  return "?";
}

std::unique_ptr<Interconnect> MachineConfig::make_interconnect() const {
  auto base = [this]() -> std::unique_ptr<Interconnect> {
    switch (interconnect) {
    case InterconnectKind::kTwoSocket:
      return std::make_unique<TwoSocketInterconnect>(cores / 2, same_socket_xfer,
                                                     cross_socket_xfer);
    case InterconnectKind::kMesh:
      return std::make_unique<MeshInterconnect>(mesh_width, mesh_height,
                                                mesh_base_xfer, mesh_per_hop,
                                                mesh_near_hops);
      case InterconnectKind::kUniform:
        return std::make_unique<UniformInterconnect>(cores, uniform_xfer);
    }
    return nullptr;
  }();
  if (placement.empty() || !base) return base;
  return std::make_unique<PermutedInterconnect>(std::move(base), placement);
}

std::vector<CoreId> placement_for(CoreId cores, bool scatter) {
  std::vector<CoreId> perm;
  perm.reserve(cores);
  if (!scatter) {
    for (CoreId c = 0; c < cores; ++c) perm.push_back(c);
    return perm;
  }
  const CoreId half = cores / 2;
  for (CoreId i = 0; i < half; ++i) {
    perm.push_back(i);
    perm.push_back(half + i);
  }
  if (cores % 2 != 0) perm.push_back(cores - 1);
  return perm;
}

CoreId MachineConfig::core_count() const noexcept {
  if (interconnect == InterconnectKind::kMesh) return mesh_width * mesh_height;
  return cores;
}

MachineConfig xeon_e5_2x18() {
  MachineConfig c;
  c.name = "xeon-e5-2x18";
  c.freq_ghz = 2.3;
  c.interconnect = InterconnectKind::kTwoSocket;
  c.cores = 36;
  c.l1_hit = 4;
  c.same_socket_xfer = 70;
  c.cross_socket_xfer = 180;
  c.memory_fill = 230;
  c.shared_supply = 40;
  // LOAD, STORE, SWP, TAS, FAA, CAS, CASLOOP-attempt
  c.exec_cost = {1, 1, 19, 19, 19, 24, 24};
  c.arbitration = Arbitration::kProximityBiased;  // Xeon fabrics favour locality
  c.arbitration_bias = 0.5;  // same-socket requesters win ~7x more races
  c.energy.freq_ghz = 2.3;
  c.energy.core_active_watts = 4.5;
  c.energy.core_spin_watts = 1.8;
  c.energy.transfer_nj_base = 2.0;
  c.energy.transfer_nj_per_hop = 1.0;
  c.energy.cross_link_nj = 8.0;
  c.energy.memory_nj = 20.0;
  return c;
}

MachineConfig knl_64() {
  MachineConfig c;
  c.name = "knl-64";
  c.freq_ghz = 1.4;
  c.interconnect = InterconnectKind::kMesh;
  c.mesh_width = 8;
  c.mesh_height = 8;
  c.cores = 64;
  c.l1_hit = 5;
  c.mesh_base_xfer = 150;  // KNL cache-to-cache is much slower than Xeon's
  c.mesh_per_hop = 6;
  c.mesh_near_hops = 4;
  c.memory_fill = 300;     // DDR side; MCDRAM would be ~170
  c.shared_supply = 60;
  c.exec_cost = {2, 2, 28, 28, 28, 34, 34};  // silvermont-derived cores
  c.arbitration = Arbitration::kProximityBiased;
  c.arbitration_bias = 3.0;  // bias decays over mesh hops
  c.energy.freq_ghz = 1.4;
  c.energy.core_active_watts = 2.8;  // many simple cores, lower per-core power
  c.energy.core_spin_watts = 1.0;
  c.energy.transfer_nj_base = 1.5;
  c.energy.transfer_nj_per_hop = 0.8;
  c.energy.cross_link_nj = 0.0;  // no socket crossing on die
  c.energy.memory_nj = 22.0;
  return c;
}

MachineConfig test_machine(CoreId cores, Cycles xfer, Cycles l1, Cycles mem) {
  MachineConfig c;
  c.name = "test-uniform";
  c.freq_ghz = 1.0;
  c.interconnect = InterconnectKind::kUniform;
  c.cores = cores;
  c.uniform_xfer = xfer;
  c.l1_hit = l1;
  c.memory_fill = mem;
  c.shared_supply = xfer / 2;
  c.exec_cost = {1, 1, 10, 10, 10, 10, 10};
  c.arbitration = Arbitration::kFifo;
  c.energy.freq_ghz = 1.0;
  return c;
}

std::string preset_names(std::string_view separator) {
  std::string out(kPresetNames[0]);
  for (std::size_t i = 1; i < kPresetNames.size(); ++i) {
    (out += separator) += kPresetNames[i];
  }
  return out;
}

MachineConfig preset_by_name(const std::string& name) {
  if (name == "xeon" || name == "xeon-e5-2x18" || name == "e5") {
    return xeon_e5_2x18();
  }
  if (name == "knl" || name == "knl-64" || name == "phi") {
    return knl_64();
  }
  if (name == "test" || name == "test-uniform") return test_machine(4);
  throw std::invalid_argument("unknown machine preset '" + name + "' (want " +
                              preset_names(" | ") + ")");
}

}  // namespace am::sim
