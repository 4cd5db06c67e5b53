// bench_sim_core: wall-clock microbenchmark of the simulator core itself.
//
// Every other bench binary measures the *simulated machine*; this one
// measures the *simulator* — how many uncached sweep points per second the
// discrete-event loop sustains. Each "point" is what SweepEngine executes
// with a cold cache: construct a Machine from the preset, run one workload,
// discard. The fixed-seed point list covers the sharing patterns whose event
// mixes differ structurally (single hot line, CAS retry storms, per-core
// lines, sharded groups, read-mostly broadcasts).
//
// Raw points/sec is a property of the host, so no absolute figure is gated.
// CI runs this binary alternately with the same binary built at the merge
// base (scripts/ab_pairs.py) and gates the per-pair ratio. Each preset's
// work digest must equal a pinned constant (exit 2 otherwise), so a timing
// never describes different work.
//
// Usage: bench_sim_core [--reps N] [--json-out PATH] [--scale N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am {
namespace {

struct Point {
  const char* name;
  std::uint64_t seed;
  sim::CoreId threads;
  sim::Cycles warmup;
  sim::Cycles measure;
  /// Builds a fresh program (programs are stateful across a run).
  std::unique_ptr<sim::ThreadProgram> (*make)();
};

std::unique_ptr<sim::ThreadProgram> hc_faa() {
  return std::make_unique<sim::HighContentionProgram>(Primitive::kFaa, 0);
}
std::unique_ptr<sim::ThreadProgram> hc_cas_loop() {
  return std::make_unique<sim::HighContentionProgram>(Primitive::kCasLoop,
                                                      0);
}
std::unique_ptr<sim::ThreadProgram> hc_swap_jitter() {
  return std::make_unique<sim::HighContentionProgram>(Primitive::kSwap,
                                                      60, 0, 0.5);
}
std::unique_ptr<sim::ThreadProgram> low_contention() {
  return std::make_unique<sim::LowContentionProgram>(Primitive::kFaa, 0);
}
std::unique_ptr<sim::ThreadProgram> sharded() {
  return std::make_unique<sim::ShardedProgram>(Primitive::kFaa, 20,
                                               /*group_size=*/4);
}
std::unique_ptr<sim::ThreadProgram> mixed_rw() {
  return std::make_unique<sim::MixedReadWriteProgram>(Primitive::kCas, 0.1,
                                                  0);
}

/// The fixed point list. Every point runs the same simulated window —
/// exactly how SweepEngine weights a sweep row — so the aggregate
/// points/sec reflects the real mix of event densities (a low-contention
/// window simulates ~50x more events than a serialized hot-line window of
/// the same simulated length). 100k cycles keeps one rep long enough that
/// the event loop dominates construction and short enough for many
/// alternating runs in one CI step.
const Point kPoints[] = {
    {"hc_faa_t4", 11, 4, 1'000, 100'000, hc_faa},
    {"hc_faa_tmax", 12, 0, 1'000, 100'000, hc_faa},
    {"hc_casloop_t8", 13, 8, 1'000, 100'000, hc_cas_loop},
    {"hc_casloop_tmax", 14, 0, 1'000, 100'000, hc_cas_loop},
    {"hc_swap_jitter_tmax", 15, 0, 1'000, 100'000, hc_swap_jitter},
    {"low_contention_tmax", 16, 0, 1'000, 100'000, low_contention},
    {"sharded_g4_tmax", 17, 0, 1'000, 100'000, sharded},
    {"mixed_rw_tmax", 18, 0, 1'000, 100'000, mixed_rw},
};

/// Work digest of the whole point list per preset, read at scale 1 and 2
/// from both the fast core and the seed core before the seed core was
/// retired. A change that moves one changes simulated behaviour, which the
/// golden corpus (tests/sim/core_equivalence_test.cpp) reports in detail.
struct PinnedDigest {
  const char* preset;
  std::uint64_t digest;
};
constexpr PinnedDigest kPinnedDigests[] = {
    {"xeon", 0x4928e706f448d992},
    {"knl", 0x75753a199b1dad11},
};

constexpr std::uint64_t kFold = 1315423911u;

/// One uncached point: cold construction + one run. Returns a digest folded
/// from the run so the work cannot be elided and can be checked.
std::uint64_t run_point(const sim::MachineConfig& cfg, const Point& p) {
  sim::Machine machine(cfg, p.seed);
  const sim::CoreId threads =
      p.threads == 0 ? machine.core_count()
                     : std::min<sim::CoreId>(p.threads, machine.core_count());
  const auto prog = p.make();
  const sim::RunStats rs = machine.run(*prog, threads, p.warmup, p.measure);
  std::uint64_t digest = 0;
  for (const sim::ThreadStats& t : rs.threads) {
    digest = digest * kFold + t.ops * 3u + t.attempts * 5u +
             t.wait_cycles * 7u;
  }
  return digest;
}

/// Runs the whole point list once, recording per-point wall seconds into
/// @p secs (indexed like kPoints). Returns the digest over all points: each
/// point's digest folded once, in list order. A repeat that redoes the
/// first run's work leaves the fold as it is, so the value does not depend
/// on @p scale; one that differs is folded in as well.
std::uint64_t run_list(const sim::MachineConfig& cfg, int scale,
                       double* secs) {
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < std::size(kPoints); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t point = run_point(cfg, kPoints[i]);
    for (int s = 1; s < scale; ++s) {
      const std::uint64_t again = run_point(cfg, kPoints[i]);
      if (again != point) point = point * kFold + again;
    }
    secs[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    digest = digest * kFold + point;
  }
  return digest;
}

struct PointResult {
  const char* name = nullptr;
  double ms = 0.0;  ///< best-of-reps wall ms (whole scale loop)
};

struct PresetResult {
  std::string preset;
  double points_per_sec = 0.0;  ///< from the per-point bests
  std::vector<PointResult> points;
};

PresetResult bench_preset(const PinnedDigest& pin, int reps, int scale) {
  const sim::MachineConfig cfg = sim::preset_by_name(pin.preset);
  constexpr std::size_t kN = std::size(kPoints);
  PresetResult r;
  r.preset = pin.preset;
  r.points.resize(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    r.points[i].name = kPoints[i].name;
    r.points[i].ms = std::numeric_limits<double>::infinity();
  }
  double secs[kN];
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t digest = run_list(cfg, scale, secs);
    if (digest != pin.digest) {
      // A cheap tripwire so a timing can never describe different work.
      std::cerr << "FATAL: work digest 0x" << std::hex << digest
                << " on preset " << pin.preset << " differs from the pinned 0x"
                << pin.digest << std::dec << "\n";
      std::exit(2);
    }
    for (std::size_t p = 0; p < kN; ++p) {
      r.points[p].ms = std::min(r.points[p].ms, secs[p] * 1e3);
    }
  }
  // Aggregate throughput from the per-point bests: sum of the best times is
  // the fastest achievable sweep, and best-of per point rejects noise.
  double total_ms = 0.0;
  for (const PointResult& pt : r.points) total_ms += pt.ms;
  r.points_per_sec = static_cast<double>(kN * scale) / (total_ms * 1e-3);
  return r;
}

std::string json_escape_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

bool write_json(const std::string& path, const std::vector<PresetResult>& rs,
                int reps, int scale) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"schema\": \"am-bench-sim-core/2\",\n"
      << "  \"reps\": " << reps << ",\n  \"scale\": " << scale << ",\n"
      << "  \"points_per_rep\": " << std::size(kPoints) * scale << ",\n"
      << "  \"presets\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const PresetResult& r = rs[i];
    out << "    {\"preset\": \"" << r.preset << "\", \"points_per_sec\": "
        << json_escape_double(r.points_per_sec) << ",\n     \"points\": [\n";
    for (std::size_t p = 0; p < r.points.size(); ++p) {
      const PointResult& pt = r.points[p];
      out << "       {\"name\": \"" << pt.name
          << "\", \"ms\": " << json_escape_double(pt.ms) << "}"
          << (p + 1 < r.points.size() ? "," : "") << "\n";
    }
    out << "     ]}" << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) {
  using namespace am;
  CliParser cli("Simulator-core throughput: uncached sweep points per second");
  cli.add_flag("reps", "best-of repetitions per preset", "3",
               CliParser::FlagKind::kInt);
  cli.add_flag("scale", "point-list repetitions per rep (raises run length)",
               "1", CliParser::FlagKind::kInt);
  cli.add_flag("json-out", "result JSON path (empty = skip)",
               "BENCH_sim_core.json");
  if (!cli.parse(argc, argv)) return 1;
  const int reps = std::max<int>(1, static_cast<int>(cli.get_int("reps")));
  const int scale = std::max<int>(1, static_cast<int>(cli.get_int("scale")));

  std::vector<PresetResult> results;
  for (const PinnedDigest& pin : kPinnedDigests) {
    results.push_back(bench_preset(pin, reps, scale));
  }

  Table table({"preset", "points/s"});
  for (const PresetResult& r : results) {
    table.add_row({r.preset, json_escape_double(r.points_per_sec)});
  }
  std::cout << "\n== simulator core throughput (best of " << reps
            << ", " << std::size(kPoints) * scale << " points/rep) ==\n"
            << table;

  Table detail({"point", "preset", "ms"});
  for (const PresetResult& r : results) {
    for (const PointResult& pt : r.points) {
      detail.add_row({pt.name, r.preset, json_escape_double(pt.ms)});
    }
  }
  std::cout << "\n" << detail;

  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    if (write_json(json_path, results, reps, scale)) {
      std::cout << "(json written to " << json_path << ")\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
