#include "common/topology.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

namespace am {

const char* to_string(PinOrder order) noexcept {
  switch (order) {
    case PinOrder::kCompact: return "compact";
    case PinOrder::kScatter: return "scatter";
  }
  return "?";
}

namespace {

/// Reads a small integer file like /sys/.../topology/core_id; returns
/// fallback when missing.
int read_int_file(const std::string& path, int fallback) {
  std::ifstream in(path);
  int v = fallback;
  if (in && (in >> v)) return v;
  return fallback;
}

int numa_node_of(int cpu) {
  // The node shows up as a directory node<N> under the cpu directory.
  for (int node = 0; node < 1024; ++node) {
    std::ifstream probe("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                        "/node" + std::to_string(node) + "/cpulist");
    if (probe) return node;
  }
  return 0;
}

}  // namespace

Topology Topology::discover() {
  Topology topo;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  // Map (package, core) -> number of SMT threads seen so far, to derive the
  // smt index deterministically even when sysfs lacks thread_siblings.
  std::map<std::pair<int, int>, int> smt_seen;
  for (unsigned i = 0; i < n; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu" + std::to_string(i) + "/topology/";
    LogicalCpu c;
    c.os_id = static_cast<int>(i);
    c.package = read_int_file(base + "physical_package_id", 0);
    c.core = read_int_file(base + "core_id", static_cast<int>(i));
    c.smt = smt_seen[{c.package, c.core}]++;
    c.numa_node = numa_node_of(static_cast<int>(i));
    topo.cpus_.push_back(c);
  }
  return topo;
}

Topology Topology::synthetic(int packages, int cores_per_package,
                             int smt_per_core) {
  Topology topo;
  int os_id = 0;
  // Mirror Linux enumeration on Intel parts: first SMT thread of every core
  // across all packages, then the second SMT threads.
  for (int smt = 0; smt < smt_per_core; ++smt) {
    for (int p = 0; p < packages; ++p) {
      for (int core = 0; core < cores_per_package; ++core) {
        LogicalCpu c;
        c.os_id = os_id++;
        c.package = p;
        c.core = core;
        c.smt = smt;
        c.numa_node = p;
        topo.cpus_.push_back(c);
      }
    }
  }
  return topo;
}

std::size_t Topology::package_count() const noexcept {
  std::set<int> pkgs;
  for (const auto& c : cpus_) pkgs.insert(c.package);
  return pkgs.size();
}

std::size_t Topology::core_count() const noexcept {
  std::set<std::pair<int, int>> cores;
  for (const auto& c : cpus_) cores.insert({c.package, c.core});
  return cores.size();
}

std::vector<int> Topology::pin_sequence(PinOrder order) const {
  std::vector<LogicalCpu> sorted = cpus_;
  switch (order) {
    case PinOrder::kCompact:
      // All smt-0 threads of socket 0's cores, then socket 1, ...; SMT
      // siblings only after every core has one thread.
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const LogicalCpu& a, const LogicalCpu& b) {
                         return std::tuple(a.smt, a.package, a.core) <
                                std::tuple(b.smt, b.package, b.core);
                       });
      break;
    case PinOrder::kScatter:
      // Alternate sockets: core 0 of socket 0, core 0 of socket 1, core 1 of
      // socket 0, ... Maximises the fraction of cross-socket transfers.
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const LogicalCpu& a, const LogicalCpu& b) {
                         return std::tuple(a.smt, a.core, a.package) <
                                std::tuple(b.smt, b.core, b.package);
                       });
      break;
  }
  std::vector<int> seq;
  seq.reserve(sorted.size());
  for (const auto& c : sorted) seq.push_back(c.os_id);
  return seq;
}

std::string Topology::describe() const {
  std::ostringstream os;
  const std::size_t pkgs = package_count();
  const std::size_t cores = core_count();
  const std::size_t smt =
      cores == 0 ? 1 : std::max<std::size_t>(1, cpus_.size() / cores);
  os << pkgs << " package(s) x " << (pkgs == 0 ? 0 : cores / std::max<std::size_t>(1, pkgs))
     << " core(s) x " << smt << " SMT = " << cpus_.size() << " logical CPUs";
  return os.str();
}

}  // namespace am
