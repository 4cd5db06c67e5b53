// CPU topology description and discovery.
//
// The paper's measurements are topology-sensitive: the cost of a cache-line
// bounce depends on whether the two threads share a core (SMT), a socket, or
// sit across the QPI link / mesh. This module provides
//   * a machine-independent Topology description,
//   * discovery from Linux sysfs for the hardware backend, and
//   * synthetic constructors used by tests and by the simulator presets.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace am {

/// One logical CPU (hardware thread).
struct LogicalCpu {
  int os_id = -1;      ///< id used by sched_setaffinity
  int package = -1;    ///< physical socket
  int core = -1;       ///< physical core within the package
  int smt = -1;        ///< hardware-thread index within the core
  int numa_node = -1;  ///< NUMA node (== package on the machines studied)
};

/// Order in which worker threads are placed onto logical CPUs.
enum class PinOrder {
  kCompact,  ///< fill cores of socket 0, then socket 1, SMT siblings last
  kScatter,  ///< round-robin across sockets first (maximises cross-socket traffic)
};

const char* to_string(PinOrder order) noexcept;

class Topology {
 public:
  /// Discovers the current machine from /sys/devices/system/cpu. Falls back
  /// to a flat single-socket description when sysfs is unavailable.
  static Topology discover();

  /// Builds a synthetic topology: @p packages sockets ×
  /// @p cores_per_package cores × @p smt_per_core hardware threads.
  static Topology synthetic(int packages, int cores_per_package,
                            int smt_per_core);

  std::size_t logical_cpu_count() const noexcept { return cpus_.size(); }
  std::size_t package_count() const noexcept;
  std::size_t core_count() const noexcept;
  const LogicalCpu& cpu(std::size_t i) const { return cpus_.at(i); }
  const std::vector<LogicalCpu>& cpus() const noexcept { return cpus_; }

  /// Returns os_ids in placement order for @p order, suitable for pinning
  /// thread i to result[i % size].
  std::vector<int> pin_sequence(PinOrder order) const;

  /// Human-readable one-line description, e.g. "2 packages x 18 cores x 2 SMT".
  std::string describe() const;

 private:
  std::vector<LogicalCpu> cpus_;
};

}  // namespace am
