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
// work digest and each point's count of dispatched events must equal pinned
// constants (exit 2 otherwise), so a timing never describes different work
// and a scheduler change cannot dispatch more events unnoticed.
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

constexpr std::size_t kNumPoints = std::size(kPoints);

/// Work digest of the whole point list per preset, read at scale 1 and 2
/// from both the fast core and the seed core before the seed core was
/// retired. A change that moves one changes simulated behaviour, which the
/// golden corpus (tests/sim/core_equivalence_test.cpp) reports in detail.
/// Beside it, the events Machine::run dispatched on each point (indexed
/// like kPoints): exact per seed, they move only when the scheduler or the
/// event structure of a transaction changes.
struct PinnedDigest {
  const char* preset;
  std::uint64_t digest;
  std::uint64_t events[kNumPoints];
};
constexpr PinnedDigest kPinnedDigests[] = {
    {"xeon",
     0x4928e706f448d992,
     {3268, 2829, 1791, 1548, 2781, 473292, 28386, 19908}},
    {"knl",
     0x75753a199b1dad11,
     {1585, 1693, 840, 1249, 1699, 586048, 25360, 11485}},
};

constexpr std::uint64_t kFold = 1315423911u;

/// What one run of a point did: a digest folded from its stats (so the work
/// cannot be elided and can be checked) and the machine's exact counts.
struct PointWork {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;   ///< events dispatched
  std::uint64_t inlined = 0;  ///< of which run inline (not pinned)
  std::uint64_t ops = 0;      ///< operations retired, warm-up included
};

/// One uncached point: cold construction + one run.
PointWork run_point(const sim::MachineConfig& cfg, const Point& p) {
  sim::Machine machine(cfg, p.seed);
  const sim::CoreId threads =
      p.threads == 0 ? machine.core_count()
                     : std::min<sim::CoreId>(p.threads, machine.core_count());
  const auto prog = p.make();
  const sim::RunStats rs = machine.run(*prog, threads, p.warmup, p.measure);
  PointWork w;
  for (const sim::ThreadStats& t : rs.threads) {
    w.digest = w.digest * kFold + t.ops * 3u + t.attempts * 5u +
               t.wait_cycles * 7u;
  }
  w.events = machine.events_dispatched();
  w.inlined = machine.events_inlined();
  w.ops = machine.ops_retired();
  return w;
}

/// Runs the whole point list once, recording per-point wall seconds into
/// @p secs and each point's counts into @p work (indexed like kPoints).
/// Returns the digest over all points: each point's digest folded once, in
/// list order. A repeat that redoes the first run's work leaves the fold as
/// it is, so the value does not depend on @p scale; one that differs is
/// folded in as well, and so is a repeat's differing event count.
std::uint64_t run_list(const sim::MachineConfig& cfg, int scale, double* secs,
                       PointWork* work) {
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    work[i] = run_point(cfg, kPoints[i]);
    std::uint64_t point = work[i].digest;
    for (int s = 1; s < scale; ++s) {
      const PointWork again = run_point(cfg, kPoints[i]);
      if (again.digest != point) point = point * kFold + again.digest;
      if (again.events != work[i].events) point = point * kFold + again.events;
    }
    secs[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    digest = digest * kFold + point;
  }
  return digest;
}

/// Reports every count of @p work and @p digest that differs from @p pin.
/// Returns false if any does.
bool matches_pins(const PinnedDigest& pin, std::uint64_t digest,
                  const PointWork* work) {
  bool ok = true;
  if (digest != pin.digest) {
    std::cerr << "FATAL: work digest 0x" << std::hex << digest
              << " on preset " << pin.preset << " differs from the pinned 0x"
              << pin.digest << std::dec << "\n";
    ok = false;
  }
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    if (work[i].events != pin.events[i]) {
      std::cerr << "FATAL: " << work[i].events << " events on preset "
                << pin.preset << " point " << kPoints[i].name
                << " differ from the pinned " << pin.events[i] << "\n";
      ok = false;
    }
  }
  return ok;
}

struct PointResult {
  const char* name = nullptr;
  double ms = 0.0;  ///< best-of-reps wall ms (whole scale loop)
  PointWork work;   ///< counts of one run (equal on every run)
};

struct PresetResult {
  std::string preset;
  double points_per_sec = 0.0;  ///< from the per-point bests
  std::vector<PointResult> points;
};

PresetResult bench_preset(const PinnedDigest& pin, int reps, int scale) {
  const sim::MachineConfig cfg = sim::preset_by_name(pin.preset);
  PresetResult r;
  r.preset = pin.preset;
  r.points.resize(kNumPoints);
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    r.points[i].name = kPoints[i].name;
    r.points[i].ms = std::numeric_limits<double>::infinity();
  }
  double secs[kNumPoints];
  PointWork work[kNumPoints];
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t digest = run_list(cfg, scale, secs, work);
    // A cheap tripwire so a timing can never describe different work.
    if (!matches_pins(pin, digest, work)) std::exit(2);
    for (std::size_t p = 0; p < kNumPoints; ++p) {
      r.points[p].ms = std::min(r.points[p].ms, secs[p] * 1e3);
      r.points[p].work = work[p];
    }
  }
  // Aggregate throughput from the per-point bests: sum of the best times is
  // the fastest achievable sweep, and best-of per point rejects noise.
  double total_ms = 0.0;
  for (const PointResult& pt : r.points) total_ms += pt.ms;
  r.points_per_sec =
      static_cast<double>(kNumPoints * scale) / (total_ms * 1e-3);
  return r;
}

std::string json_escape_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double events_per_op(const PointWork& w) {
  return w.ops == 0 ? 0.0
                    : static_cast<double>(w.events) /
                          static_cast<double>(w.ops);
}

/// Share of the dispatched events that ran inline, in percent.
double inline_pct(const PointWork& w) {
  return w.events == 0 ? 0.0
                       : 100.0 * static_cast<double>(w.inlined) /
                             static_cast<double>(w.events);
}

bool write_json(const std::string& path, const std::vector<PresetResult>& rs,
                int reps, int scale) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"schema\": \"am-bench-sim-core/3\",\n"
      << "  \"reps\": " << reps << ",\n  \"scale\": " << scale << ",\n"
      << "  \"points_per_rep\": " << kNumPoints * scale << ",\n"
      << "  \"presets\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const PresetResult& r = rs[i];
    out << "    {\"preset\": \"" << r.preset << "\", \"points_per_sec\": "
        << json_escape_double(r.points_per_sec) << ",\n     \"points\": [\n";
    for (std::size_t p = 0; p < r.points.size(); ++p) {
      const PointResult& pt = r.points[p];
      out << "       {\"name\": \"" << pt.name
          << "\", \"ms\": " << json_escape_double(pt.ms)
          << ", \"events\": " << pt.work.events
          << ", \"ops\": " << pt.work.ops << "}"
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
            << ", " << kNumPoints * scale << " points/rep) ==\n"
            << table;

  Table detail({"point", "preset", "ms", "events", "events/op", "inline %"});
  for (const PresetResult& r : results) {
    for (const PointResult& pt : r.points) {
      detail.add_row({pt.name, r.preset, json_escape_double(pt.ms),
                      std::to_string(pt.work.events),
                      json_escape_double(events_per_op(pt.work)),
                      json_escape_double(inline_pct(pt.work))});
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
