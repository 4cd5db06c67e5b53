// am_perfbench: the repository benchmark's measuring binary.
//
//   am_perfbench --workload sweep_cold|serve_hot|serve_cold --seed N
//                --seconds S --trace 0|1 [--bench-dir perfbench]
//                [--out-dir .bench_build]
//   am_perfbench --write-golden PATH      (regenerates the sweep_cold digests)
//
// Prints one "metric <name> <value> <unit>" line per metric, any correctness
// problems, and as its last line a JSON object with correct / attempted /
// failed / metrics. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones (every name in kPerLayer, 0 where the
// workload does not exercise that layer). perfbench/run.py builds this
// binary, runs it and keeps the metrics BENCHMARK.json names.
// Exit status: 0 when every unit of work was correct, 1 otherwise, 2 on a
// usage error.
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"

namespace perfbench {
int write_sweep_golden(const Options& opt, const std::string& path);
}  // namespace perfbench

namespace {

/// Every per-layer metric, in output order. A traced run prints all of them.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"server.outside_handler_us_p50", "us"},
    {"server.outside_handler_us_p99", "us"},
    {"server.outside_handler_share", "ratio"},
    {"protocol.parse_us_p50", "us"},
    {"protocol.parse_run_guest_us_p50", "us"},
    {"protocol.key_us_p50", "us"},
    {"protocol.envelope_us_p50", "us"},
    {"lru_cache.hit_ratio", "ratio"},
    {"lru_cache.get_us_p50", "us"},
    {"lru_cache.put_us_p50", "us"},
    {"lru_cache.evictions", "count"},
    {"handlers.hit_us_p50", "us"},
    {"handlers.miss_us_p50.predict", "us"},
    {"handlers.miss_ms_p50.simulate", "ms"},
    {"handlers.miss_ms_p50.run_guest", "ms"},
    {"model.construct_us_p50", "us"},
    {"model.predict_us_p50", "us"},
    {"sweep.engine_overhead_us_p50", "us"},
    {"sweep.pool_busy_ratio", "ratio"},
    {"sweep.failed_points", "count"},
    {"sim.build_us_p50", "us"},
    {"sim.run_ms_p50", "ms"},
    {"sim.host_ns_per_op.shared", "ns"},
    {"sim.host_ns_per_op.private", "ns"},
    {"sim.host_ns_per_op.mixed", "ns"},
    {"sim.host_ns_per_op.zipf", "ns"},
    {"sim.host_ns_per_op.tso", "ns"},
    {"sim.ops", "count"},
    {"sim.cycles", "count"},
    {"sim.grants", "count"},
    {"sim.mesi_transitions", "count"},
    {"sim.invalidations", "count"},
    {"sim.trace_events", "count"},
    {"guest.load_us_p50", "us"},
    {"guest.run_ms_p50", "ms"},
    {"guest.host_ns_per_instr", "ns"},
    {"guest.instructions", "count"},
    {"guest.atomics", "count"},
    {"guest.yields", "count"},
    {"guest.sc_failures", "count"},
    {"guest.sim_events", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.accounted_ratio", "ratio"},
};

bool is_per_layer(const std::string& name) {
  for (const auto& [n, u] : kPerLayer) {
    if (name == n) return true;
  }
  return false;
}

int usage(const char* why) {
  std::cerr << "am_perfbench: " << why << "\n"
            << "usage: am_perfbench --workload sweep_cold|serve_hot|serve_cold"
               " --seed N --seconds S --trace 0|1 [--bench-dir DIR]"
               " [--out-dir DIR] | --write-golden PATH\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string golden_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--bench-dir") {
      opt.bench_dir = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--write-golden") {
      golden_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!golden_out.empty()) return perfbench::write_sweep_golden(opt, golden_out);

  perfbench::Report rep;
  if (opt.workload == "sweep_cold") {
    rep = perfbench::run_sweep_cold(opt);
  } else if (opt.workload == "serve_hot") {
    rep = perfbench::run_serve_hot(opt);
  } else if (opt.workload == "serve_cold") {
    rep = perfbench::run_serve_cold(opt);
  } else {
    return usage("unknown --workload");
  }
  if (rep.attempted == 0) rep.fail("no work completed");
  rep.set("error_ratio",
          static_cast<double>(rep.failed) /
              static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)),
          "ratio");
  if (opt.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      if (rep.metrics.count(name) == 0) rep.set(name, 0.0, unit);
    }
  }

  for (const auto& [name, vu] : rep.metrics) {
    if (opt.trace != is_per_layer(name)) continue;
    std::cout << "metric " << std::left << std::setw(34) << name << " "
              << std::setprecision(10) << vu.first << " " << vu.second << "\n";
  }
  for (const std::string& p : rep.problems) std::cout << "problem " << p << "\n";

  std::ostringstream os;
  am::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", rep.correct);
  w.kv("attempted", rep.attempted);
  w.kv("failed", rep.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, vu] : rep.metrics) {
    if (opt.trace != is_per_layer(name)) continue;
    w.key(name).begin_object();
    w.kv("value", vu.first);
    w.kv("unit", vu.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
  return rep.correct ? 0 : 1;
}
