// Shared plumbing for the experiment harnesses: every bench binary
// reproduces one table/figure of the paper, prints it as an aligned ASCII
// table, and mirrors it to a CSV file for offline plotting.
#pragma once

#include <chrono>
#include <csignal>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_core/backend.hpp"
#include "bench_core/report.hpp"
#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "model/bouncing_model.hpp"
#include "model/params.hpp"
#include "sim/config.hpp"

namespace am::bench_util {

/// Wall clock of the bench run, pinned when add_common_flags() runs (i.e. at
/// program start); emit() reads it back for the report's wall_time_s.
inline std::chrono::steady_clock::time_point& start_time() {
  static auto t0 = std::chrono::steady_clock::now();
  return t0;
}

/// Flag groups beyond --csv and --json-out (read by emit()). Each binary
/// registers exactly the groups it honours: any other flag is an error.
enum FlagGroup : unsigned {
  kBackend = 1u << 0,  ///< --backend: the one machine selector
  kThreads = 1u << 1,  ///< --threads: thread_sweep()
  kTrace = 1u << 2,    ///< --trace-out, --epoch-cycles: simulator backends
  kSweep = 1u << 3,    ///< the seven flags sweep_from() reads
};

/// Registers --csv, --json-out and the flags of @p groups (FlagGroup bits).
inline void add_common_flags(CliParser& cli, unsigned groups) {
  start_time();
  if ((groups & kBackend) != 0) {
    cli.add_flag("backend",
                 "machine: sim[:<preset>[:sc|:tso]] with preset xeon | knl | "
                 "test (bare sim = sim:xeon; :tso selects the weak-memory "
                 "model), hw, or auto (hw on >= 8 cores, else sim:xeon); "
                 "simulator-only experiments reject hw",
                 "sim:xeon");
  }
  cli.add_flag("csv", "write the table as CSV to this path (empty = skip)",
               "");
  if ((groups & kThreads) != 0) {
    cli.add_flag("threads",
                 "comma-separated thread counts (empty = default sweep)", "",
                 CliParser::FlagKind::kIntList);
  }
  cli.add_flag("json-out",
               "write a JSON run report (schema am-run-report/1) with "
               "per-thread stats, hot lines and epoch time-series to this path",
               "");
  if ((groups & kTrace) != 0) {
    cli.add_flag("trace-out",
                 "stream a Chrome trace-event JSON file (load in Perfetto / "
                 "chrome://tracing) covering every simulated run; sim "
                 "backends only",
                 "");
    cli.add_flag("epoch-cycles",
                 "epoch sampler window in cycles; 0 = off (--json-out "
                 "defaults it to measure/32)",
                 "0", CliParser::FlagKind::kInt);
  }
  if ((groups & kSweep) == 0) return;
  cli.add_flag("jobs",
               "parallel sweep workers; 0 = host core count, 1 = serial. "
               "Results are byte-identical for every value; hardware "
               "backends force 1; conflicts with --trace-out when > 1",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("sweep-cache",
               "directory of the on-disk sweep result cache; re-runs load "
               "already-computed points bit-exactly (empty = off)",
               "");
  cli.add_flag("base-seed",
               "base seed for the sweep's per-point seed derivation",
               "1", CliParser::FlagKind::kUint64);
  cli.add_flag("sweep-journal",
               "crash-safe journal of completed sweep points; a rerun after "
               "SIGKILL/SIGINT skips journaled points even with the result "
               "cache off (empty = off)",
               "");
  cli.add_flag("max-point-cycles",
               "per-point watchdog budget in simulated cycles; 0 = auto "
               "(64x the warmup+measure window), negative = no watchdog",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("strict",
               "exit non-zero when any sweep point fails (default: print "
               "degraded rows and exit 0 unless every point failed)",
               "false", CliParser::FlagKind::kBool);
  cli.add_flag("replay-point",
               "re-execute exactly this sweep submission index, serially, "
               "bypassing cache and journal (-1 = off); printed in the "
               "replay command of every failed point",
               "-1", CliParser::FlagKind::kInt);
}

/// parse() plus cross-flag validation; every bench main funnels through
/// this so conflicting flags (an explicit --jobs > 1 with --trace-out, see
/// bench::jobs_trace_conflict) fail before any simulation starts.
inline bool parse_common(CliParser& cli, int argc, const char* const* argv) {
  if (!cli.parse(argc, argv)) return false;
  if (!cli.has("jobs")) return true;  // default 0 = auto, serialized by trace
  const std::string err = bench::jobs_trace_conflict(
      cli.get_int("jobs"), !cli.get("trace-out").empty());
  if (!err.empty()) std::cerr << err << "\n";
  return err.empty();
}

/// Applies --epoch-cycles / --json-out instrumentation (plus the
/// --max-point-cycles watchdog where the binary sweeps, and optionally a
/// shared trace sink) to a sim backend.
inline void apply_task_obs(const CliParser& cli, obs::TraceSink* sink,
                           bench::SimBackend& sim) {
  const bool want_report = !cli.get("json-out").empty();
  auto window = static_cast<sim::Cycles>(cli.get_int("epoch-cycles"));
  if (window == 0 && want_report) {
    window = sim.options().measure_cycles / 32;
  }
  sim.set_epoch_cycles(window);
  sim.set_line_profiling(want_report);
  if (cli.registered("max-point-cycles")) {
    sim.set_watchdog(bench::watchdog_for_budget(
        cli.get_int("max-point-cycles"), sim.options()));
  }
  if (sink != nullptr) sim.set_sink(sink);
}

/// Applies --trace-out / --epoch-cycles / --json-out instrumentation to a
/// backend. Observability is a simulator feature: on the hardware backend
/// only the report itself applies, and a requested trace warns.
inline void apply_obs(const CliParser& cli, bench::ExecutionBackend& backend) {
  const std::string trace_path = cli.get("trace-out");
  auto* sim = dynamic_cast<bench::SimBackend*>(&backend);
  if (sim == nullptr) {
    if (!trace_path.empty()) {
      std::cerr << "--trace-out: the hardware backend has no coherence "
                   "trace; ignored\n";
    }
    return;
  }
  apply_task_obs(cli, nullptr, *sim);
  if (!trace_path.empty() && !sim->set_trace_file(trace_path)) {
    std::cerr << "failed to open trace file " << trace_path << "\n";
  }
}

/// Builds the backend @p spec names, instrumented per the obs flags.
inline std::unique_ptr<bench::ExecutionBackend> backend_from(
    const CliParser& cli, const bench::BackendSpec& spec) {
  auto backend = bench::make_backend(spec);
  apply_obs(cli, *backend);
  return backend;
}

/// The simulated machine --backend names, for the experiments that drive
/// the simulator directly: there hw (or auto resolving to it) is an error.
inline sim::MachineConfig sim_machine(const CliParser& cli) {
  bench::BackendSpec spec = bench::parse_backend_spec(cli.get("backend"));
  if (!spec.hw) return std::move(spec.machine);
  throw std::invalid_argument("--backend=" + cli.get("backend") + ": " +
                              cli.program_name() + " is simulator-only");
}

/// A bench binary's sweep: the engine plus the trace sink shared by every
/// point when --trace-out is set (tracing forces --jobs=1, so the single
/// sink is never written concurrently).
struct Sweep {
  std::unique_ptr<obs::ChromeTraceFileSink> trace;
  std::unique_ptr<bench::SweepEngine> engine;
};

/// Builds the sweep engine from the kSweep flags; workload points run on
/// the machine @p spec names (a task-only sweep, like T1's, passes none).
/// --jobs=1 runs the identical seeds/points serially, so reports match at
/// any width.
inline Sweep sweep_from(const CliParser& cli,
                        const std::optional<bench::BackendSpec>& spec) {
  Sweep s;
  bool serial = false;
  obs::TraceSink* sink = nullptr;
  if (spec && spec->hw) {
    // Hardware measurements own the host's cores; concurrent points would
    // measure each other.
    serial = true;
  } else if (const std::string trace_path = cli.get("trace-out");
             !trace_path.empty()) {
    s.trace = std::make_unique<obs::ChromeTraceFileSink>(trace_path);
    if (!s.trace->ok()) {
      std::cerr << "failed to open trace file " << trace_path << "\n";
      s.trace.reset();
    } else {
      sink = s.trace.get();
      serial = true;  // one trace stream
    }
  }
  bench::SweepOptions opts;
  opts.replay_point = cli.get_int("replay-point");
  if (opts.replay_point >= 0) serial = true;  // replay is a serial debug run
  opts.jobs = serial ? 1u
                     : static_cast<unsigned>(
                           std::max<std::int64_t>(0, cli.get_int("jobs")));
  opts.cache_dir = cli.get("sweep-cache");
  opts.base_seed = cli.get_uint64("base-seed");
  opts.journal_path = cli.get("sweep-journal");
  // Ctrl-C cancels cooperatively: in-flight points finish, unstarted ones
  // surface as cancelled rows, the journal and partial report still land,
  // and finish() exits 130.
  std::signal(SIGINT, [](int) { bench::SweepEngine::request_cancel(); });
  bench::SweepEngine::BackendFactory factory;
  if (spec) {
    factory = [cli_copy = cli, sink, target = *spec](std::uint64_t seed) {
      auto backend = bench::make_backend(target, seed);
      if (auto* sim = dynamic_cast<bench::SimBackend*>(backend.get())) {
        apply_task_obs(cli_copy, sink, *sim);
      }
      return backend;
    };
  }
  s.engine = std::make_unique<bench::SweepEngine>(std::move(factory), opts);
  return s;
}

/// Analytic model parameters for the machine @p spec names; for hw this is
/// the Xeon skeleton (structure only) — pair it with calibration.
inline model::ModelParams params_for(const bench::BackendSpec& spec) {
  return model::ModelParams::from_machine(spec.hw ? sim::xeon_e5_2x18()
                                                  : spec.machine);
}

/// Default thread sweep for a backend: powers-of-two-ish points up to the
/// machine's core count (the x-axis of the paper's figures).
inline std::vector<std::uint32_t> default_thread_sweep(std::uint32_t max) {
  std::vector<std::uint32_t> sweep;
  for (std::uint32_t n : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u, 36u, 48u, 64u}) {
    if (n <= max) sweep.push_back(n);
  }
  if (sweep.empty() || sweep.back() != max) sweep.push_back(max);
  return sweep;
}

/// The counts of @p fixed that fit a machine of @p max threads, or just
/// @p max when none does: a machine smaller than every fixed count runs the
/// experiment at its own size instead of printing an empty table.
inline std::vector<std::uint32_t> fixed_thread_counts(
    std::initializer_list<std::uint32_t> fixed, std::uint32_t max) {
  std::vector<std::uint32_t> counts;
  for (std::uint32_t n : fixed) {
    if (n <= max) counts.push_back(n);
  }
  if (counts.empty()) counts.push_back(max);
  return counts;
}

/// Thread sweep from --threads, or the default one when it is not given.
/// Throws std::invalid_argument for a count outside [1, @p max].
inline std::vector<std::uint32_t> thread_sweep(const CliParser& cli,
                                               std::uint32_t max) {
  if (!cli.has("threads")) return default_thread_sweep(max);
  std::vector<std::uint32_t> sweep;
  for (auto v : cli.get_int_list("threads")) {
    if (v < 1 || v > static_cast<std::int64_t>(max)) {
      throw std::invalid_argument("--threads: " + std::to_string(v) +
                                  " is outside [1, " + std::to_string(max) +
                                  "] on this machine");
    }
    sweep.push_back(static_cast<std::uint32_t>(v));
  }
  return sweep;
}

/// The primitive the flag @p name names. Throws std::invalid_argument for a
/// value that names none.
inline Primitive primitive_flag(const CliParser& cli, const std::string& name) {
  const std::string value = cli.get(name);
  if (const auto prim = parse_primitive(value)) return *prim;
  throw std::invalid_argument("--" + name + ": '" + value +
                              "' names no primitive");
}

/// The command that re-executes sweep point @p index in isolation: the
/// original command line with the execution-shape flags (--jobs,
/// --replay-point, caches, journal, report/trace outputs) stripped and
/// `--jobs=1 --replay-point=N` appended. Deterministic for a given command,
/// so reports stay byte-identical across --jobs and cache temperature.
inline std::string replay_command(const CliParser& cli, std::size_t index) {
  static constexpr const char* kStrip[] = {
      "--jobs",       "--sweep-cache", "--sweep-journal", "--replay-point",
      "--json-out",   "--csv",         "--trace-out",
  };
  std::istringstream in(cli.command_line());
  std::string tok;
  std::string out;
  bool skip_value = false;
  while (in >> tok) {
    if (skip_value) {  // the detached value of a stripped "--flag value"
      skip_value = false;
      continue;
    }
    bool strip = false;
    for (const char* flag : kStrip) {
      const std::string f(flag);
      if (tok == f) {
        strip = true;
        skip_value = true;  // value is the next token
        break;
      }
      if (tok.rfind(f + "=", 0) == 0) {
        strip = true;
        break;
      }
    }
    if (strip) continue;
    if (!out.empty()) out += ' ';
    out += tok;
  }
  return out + " --jobs=1 --replay-point=" + std::to_string(index);
}

/// Table row for a point that produced no measurement: the label column(s)
/// survive, the status lands in the first free column, the rest degrade to
/// "-". The sweep keeps every surviving row; only the failed point is dark.
inline std::vector<std::string> degraded_row(const Table& table,
                                             std::vector<std::string> labels,
                                             const bench::PointOutcome& out) {
  std::vector<std::string> cells = std::move(labels);
  if (cells.size() < table.column_count()) {
    // kSkipped is replay-mode bookkeeping, not a failure.
    cells.push_back(out.status == bench::PointStatus::kSkipped
                        ? "skipped"
                        : std::string("FAILED:") +
                              bench::to_string(out.status));
  }
  while (cells.size() < table.column_count()) cells.emplace_back("-");
  cells.resize(table.column_count());
  return cells;
}

/// Report-facing summary of a drained sweep (the "sweep" section of
/// am-run-report/1), including a replay command per failed point.
inline bench::SweepReport sweep_report(const CliParser& cli,
                                       const bench::SweepEngine& engine) {
  bench::SweepReport r;
  r.points = engine.submitted_points();
  r.ok = engine.ok_points();
  r.cache_io_errors = engine.cache_io_errors();
  r.quarantined_files = engine.quarantined_files();
  for (const auto& f : engine.failed_points()) {
    bench::SweepReport::Failure out;
    out.index = f.index;
    out.status = bench::to_string(f.status);
    out.seed = f.seed;
    out.message = f.message;
    out.replay = replay_command(cli, f.index);
    out.workload = f.is_task ? "task" : f.config.describe();
    r.failures.push_back(std::move(out));
  }
  return r;
}

/// Exit-code policy for a drained sweep: 130 after SIGINT (shell
/// convention), 1 when every point failed or when --strict and anything
/// failed, 0 otherwise — a degraded sweep that still measured something is
/// a success by default.
inline int sweep_exit_code(const CliParser& cli,
                           const bench::SweepEngine& engine) {
  if (bench::SweepEngine::cancel_requested()) return 130;
  const std::size_t failed = engine.failed_points().size();
  if (failed == 0) return 0;
  if (cli.get_bool("strict")) return 1;
  return engine.ok_points() == 0 ? 1 : 0;
}

/// Prints the table, mirrors it to --csv, and writes the --json-out run
/// report. The report serializes every workload the binary executed through
/// the backend seam (bench::run_log()) alongside the rendered table, so no
/// bench needs to thread its measurements here explicitly. @p sweep, when
/// given, adds a pool/cache summary line and per-failure replay lines to
/// stdout, and a "sweep" section (ok/failed counts, failed_points with
/// replay commands) to the report. Sweep execution counters never enter the
/// report — it stays byte-identical across --jobs and cache temperature.
inline void emit(const CliParser& cli, const std::string& title,
                 const Table& table,
                 const bench::SweepEngine* sweep = nullptr) {
  std::cout << "\n== " << title << " ==\n" << table;
  bench::SweepReport sr;
  if (sweep != nullptr) {
    sr = sweep_report(cli, *sweep);
    std::cout << "(sweep: " << sweep->executed_points() << " simulated, "
              << sweep->cache_hits() << " cache hits, ";
    if (sweep->journal_hits() > 0) {
      std::cout << sweep->journal_hits() << " journal hits, ";
    }
    std::cout << "jobs=" << sweep->jobs() << ")\n";
    for (const auto& f : sr.failures) {
      std::cout << "(point " << f.index << " " << f.status << ": " << f.message
                << "; replay: " << f.replay << ")\n";
    }
  }
  const std::string path = cli.get("csv");
  if (!path.empty()) {
    if (table.write_csv(path)) {
      std::cout << "(csv written to " << path << ")\n";
    } else {
      std::cerr << "failed to write csv to " << path << "\n";
    }
  }
  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    const auto& runs = bench::run_log();
    bench::ReportMeta meta;
    meta.bench = cli.program_name();
    meta.title = title;
    // T1 takes no --backend: its table is fixed to both presets.
    meta.backend = cli.registered("backend") ? cli.get("backend") : "";
    meta.machine = runs.empty() ? "" : runs.back().run.machine;
    meta.command = cli.command_line();
    meta.wall_time_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_time())
                           .count();
    if (bench::write_run_report_file(json_path, meta, &table, runs,
                                     sweep != nullptr ? &sr : nullptr)) {
      std::cout << "(json report written to " << json_path << ", "
                << runs.size() << " runs)\n";
    } else {
      std::cerr << "failed to write json report to " << json_path << "\n";
    }
  }
}

}  // namespace am::bench_util
