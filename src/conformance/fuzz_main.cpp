// conformance_fuzz — differential fuzzing of the coherence simulator
// against the sequential reference oracle.
//
// Typical uses:
//   conformance_fuzz --seeds=100                    # fuzz both presets
//   conformance_fuzz --preset=knl --seeds=500 --start-seed=12000
//   conformance_fuzz --preset=xeon --replay-seed=42 # re-run one repro
//   conformance_fuzz --memory-model=tso --sched=pct --seeds=100
//                                                   # TSO + controlled schedules
//   conformance_fuzz --litmus --memory-model=tso    # litmus allowed-set check
//   conformance_fuzz --inject-bug=lost-upgrade-write --seeds=20
//                                                   # harness self-test: must fail
//
// Exit status: 0 when every seed conforms (and the model gate holds),
// 1 on any conformance failure, 2 on bad usage — including a
// --gen-version/--sched-version mismatch, which means the replay line came
// from an incompatible harness build and re-running it here would silently
// explore a different program or schedule.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "conformance/differ.hpp"
#include "conformance/litmus.hpp"
#include "conformance/model_gate.hpp"
#include "conformance/pct.hpp"
#include "sim/config.hpp"

namespace {

using namespace am;
using namespace am::conformance;

struct PresetRun {
  std::string name;
  sim::MachineConfig config;
};

int run_seed_range(const std::vector<PresetRun>& presets, const GenConfig& gen,
                   std::uint64_t start_seed, std::uint64_t count,
                   bool do_shrink, const std::string& out_dir,
                   const ScheduleSpec& sched) {
  int failures = 0;
  for (const auto& preset : presets) {
    GenConfig g = gen;
    g.cores = std::min<sim::CoreId>(g.cores, preset.config.core_count());
    std::size_t checked = 0;
    for (std::uint64_t s = start_seed; s < start_seed + count; ++s) {
      const FuzzCase c = fuzz_one(s, g, preset.config, do_shrink, sched);
      checked += c.report.ops_checked;
      if (c.ok) continue;
      ++failures;
      std::cout << c.describe(preset.name, g) << "\n";
      if (!out_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        const std::string path =
            out_dir + "/" + preset.name + "-seed-" + std::to_string(s) + ".txt";
        std::ofstream f(path);
        f << c.describe(preset.name, g) << "\n";
        std::cout << "(repro written to " << path << ")\n";
      }
    }
    std::cout << "preset " << preset.name << ": " << count << " seeds, "
              << checked << " ops oracle-checked, "
              << (failures == 0 ? "all conformant" :
                  std::to_string(failures) + " failure(s)")
              << "\n";
  }
  return failures;
}

/// Litmus mode: run the fixed SB/MP/LB/IRIW corpus against each preset and
/// check every observed outcome against the model's allowed set. Under TSO
/// the scheduler must also *reach* each test's weak signature outcome within
/// the seed budget — that is the CI smoke's proof that the store buffers
/// (and PCT's steering) actually reorder anything.
int run_litmus_mode(const std::vector<PresetRun>& presets,
                    const std::string& filter,
                    const LitmusRunOptions& opts) {
  int failures = 0;
  for (const auto& preset : presets) {
    for (const LitmusTest& test : litmus_corpus()) {
      if (!filter.empty() &&
          test.name.find(filter) == std::string::npos) {
        continue;
      }
      const LitmusRunResult r =
          run_litmus(test, preset.config, preset.name, opts);
      bool ok = r.ok;
      std::cout << "preset " << preset.name << ": " << r.summary() << "\n";
      if (opts.model == sim::MemoryModel::kTso &&
          !test.tso_signature.empty() && !r.signature_seen) {
        std::cout << "preset " << preset.name << ": litmus " << test.name
                  << ": weak outcome {" << format_outcome(test.tso_signature)
                  << "} never reached in " << r.runs
                  << " runs — TSO reordering is not observable\n";
        ok = false;
      }
      if (!ok) ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Differential conformance fuzzer: random atomic programs executed on "
      "the coherence simulator and checked against a sequential oracle "
      "(see docs/testing.md)");
  cli.add_flag("preset", "machine preset: xeon | knl | test | both", "both");
  cli.add_flag("seeds", "number of consecutive seeds to fuzz", "20",
               CliParser::FlagKind::kInt);
  cli.add_flag("start-seed", "first seed of the range", "1",
               CliParser::FlagKind::kUint64);
  cli.add_flag("replay-seed",
               "re-run exactly one seed (prints the full report); overrides "
               "--seeds/--start-seed",
               "", CliParser::FlagKind::kUint64);
  cli.add_flag("cores", "cores per generated program (capped to the preset)",
               "6", CliParser::FlagKind::kInt);
  cli.add_flag("ops", "ops per core", "48", CliParser::FlagKind::kInt);
  cli.add_flag("lines", "shared line pool size", "6",
               CliParser::FlagKind::kInt);
  cli.add_flag("pattern",
               "line sharing pattern: single | private | uniform | zipf | "
               "mixed",
               "mixed");
  cli.add_flag("zipf", "Zipf exponent of the pool draw", "1.1",
               CliParser::FlagKind::kDouble);
  cli.add_flag("load-fraction", "probability an op is a LOAD", "0.35",
               CliParser::FlagKind::kDouble);
  cli.add_flag("max-work", "max local work cycles between ops", "32",
               CliParser::FlagKind::kInt);
  cli.add_flag("memory-model", "memory model the machine runs under: sc | tso",
               "sc");
  cli.add_flag("sched",
               "schedule control: none (configured arbitration policy) | pct "
               "(prioritized controlled scheduling)",
               "none");
  cli.add_flag("sched-seed",
               "PCT schedule seed; 0 derives it from the program seed", "0",
               CliParser::FlagKind::kUint64);
  cli.add_flag("pct-depth", "PCT bug depth d (d-1 priority change points)",
               "3", CliParser::FlagKind::kInt);
  cli.add_flag("gen-version",
               "expected program-generator version from a replay line; "
               "mismatch is a hard error (0 = skip the check)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("sched-version",
               "expected PCT schedule version from a replay line; mismatch "
               "is a hard error (0 = skip the check)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("litmus",
               "run the litmus corpus (SB, SB+fence, MP, LB, IRIW) instead "
               "of random fuzzing",
               "false", CliParser::FlagKind::kBool);
  cli.add_flag("litmus-filter",
               "only run litmus tests whose name contains this substring",
               "");
  cli.add_flag("litmus-seeds", "machine/schedule seeds per litmus test", "64",
               CliParser::FlagKind::kInt);
  cli.add_flag("litmus-first-seed", "first litmus seed", "1",
               CliParser::FlagKind::kUint64);
  cli.add_flag("inject-bug",
               "deliberate sim defect for harness self-tests: none | "
               "lost-upgrade-write | skip-shared-invalidate",
               "none");
  cli.add_flag("no-shrink", "skip minimizing failing programs", "false",
               CliParser::FlagKind::kBool);
  cli.add_flag("model-gate",
               "also check model-vs-sim throughput MAPE per preset", "true",
               CliParser::FlagKind::kBool);
  cli.add_flag("max-mape",
               "model gate MAPE bound (fraction); 0 = per-preset default",
               "0", CliParser::FlagKind::kDouble);
  cli.add_flag("gate-points", "workload points per model gate batch", "8",
               CliParser::FlagKind::kInt);
  cli.add_flag("out",
               "directory for failing-seed repro files (CI artifacts)", "");
  if (!cli.parse(argc, argv)) return 2;

  GenConfig gen;
  gen.cores = static_cast<sim::CoreId>(std::max<std::int64_t>(1, cli.get_int("cores")));
  gen.ops_per_core = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("ops")));
  gen.lines = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("lines")));
  gen.zipf_s = cli.get_double("zipf");
  gen.load_fraction = cli.get_double("load-fraction");
  gen.max_work = static_cast<sim::Cycles>(
      std::max<std::int64_t>(0, cli.get_int("max-work")));
  if (const auto p = parse_pattern(cli.get("pattern"))) {
    gen.pattern = *p;
  } else {
    std::cerr << "unknown --pattern=" << cli.get("pattern")
              << " (want single | private | uniform | zipf | mixed)\n";
    return 2;
  }

  // Version pins from replay lines: refuse to "replay" with a harness whose
  // seed expansion differs from the one that found the failure.
  const std::int64_t want_gen = cli.get_int("gen-version");
  if (want_gen != 0 && want_gen != kGeneratorVersion) {
    std::cerr << "replay line was produced by generator version " << want_gen
              << " but this binary implements version " << kGeneratorVersion
              << "; the seed would expand to a different program. Rebuild "
                 "the matching harness instead of replaying here.\n";
    return 2;
  }
  const std::int64_t want_sched = cli.get_int("sched-version");
  if (want_sched != 0 && want_sched != kScheduleVersion) {
    std::cerr << "replay line was produced by schedule version " << want_sched
              << " but this binary implements version " << kScheduleVersion
              << "; the seed would expand to a different schedule. Rebuild "
                 "the matching harness instead of replaying here.\n";
    return 2;
  }

  const auto model = sim::parse_memory_model(cli.get("memory-model"));
  if (!model) {
    std::cerr << "unknown --memory-model=" << cli.get("memory-model")
              << " (want sc | tso)\n";
    return 2;
  }

  ScheduleSpec sched;
  const std::string sched_name = cli.get("sched");
  if (sched_name == "pct") {
    sched.use_pct = true;
  } else if (sched_name != "none") {
    std::cerr << "unknown --sched=" << sched_name << " (want none | pct)\n";
    return 2;
  }
  sched.seed = cli.get_uint64("sched-seed");
  sched.depth = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("pct-depth")));

  sim::FaultInjection fault = sim::FaultInjection::kNone;
  const std::string bug = cli.get("inject-bug");
  if (bug == "lost-upgrade-write") {
    fault = sim::FaultInjection::kLostUpgradeWrite;
  } else if (bug == "skip-shared-invalidate") {
    fault = sim::FaultInjection::kSkipSharedInvalidate;
  } else if (bug != "none") {
    std::cerr << "unknown --inject-bug=" << bug
              << " (want none | lost-upgrade-write | skip-shared-invalidate)\n";
    return 2;
  }

  std::vector<PresetRun> presets;
  const std::string preset = cli.get("preset");
  if (preset == "both") {
    presets.push_back({"xeon", sim::xeon_e5_2x18()});
    presets.push_back({"knl", sim::knl_64()});
  } else if (std::ranges::find(sim::kPresetNames, preset) !=
             sim::kPresetNames.end()) {
    presets.push_back({preset, sim::preset_by_name(preset)});
  } else {
    std::cerr << "unknown --preset=" << preset << " (want "
              << sim::preset_names(" | ") << " | both)\n";
    return 2;
  }
  for (auto& p : presets) {
    p.config.fault = fault;
    p.config.memory_model = *model;
  }

  if (cli.get_bool("litmus")) {
    LitmusRunOptions opts;
    opts.model = *model;
    opts.first_seed = cli.get_uint64("litmus-first-seed");
    opts.seeds = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, cli.get_int("litmus-seeds")));
    // Litmus sweeps default to PCT steering (that is what reaches the weak
    // outcomes); --sched=none opts out explicitly.
    opts.use_pct = sched_name != "none" || !cli.has("sched");
    opts.pct_depth = sched.depth;
    const int failures =
        run_litmus_mode(presets, cli.get("litmus-filter"), opts);
    return failures == 0 ? 0 : 1;
  }

  std::uint64_t start_seed = cli.get_uint64("start-seed");
  std::uint64_t count = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, cli.get_int("seeds")));
  if (cli.has("replay-seed")) {
    start_seed = cli.get_uint64("replay-seed");
    count = 1;
  }

  int failures =
      run_seed_range(presets, gen, start_seed, count,
                     !cli.get_bool("no-shrink"), cli.get("out"), sched);

  // The model gate calibrates against SC sweeps with the configured
  // arbitration policy; a TSO or PCT-steered run measures something else.
  if (cli.get_bool("model-gate") && fault == sim::FaultInjection::kNone &&
      *model == sim::MemoryModel::kSc && !sched.use_pct) {
    ModelGateOptions opts;
    opts.max_mape = cli.get_double("max-mape");
    opts.points = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, cli.get_int("gate-points")));
    for (const auto& p : presets) {
      if (p.name == "both") continue;
      const ModelGateResult gate = run_model_gate(p.name, start_seed, opts);
      std::cout << "preset " << p.name << ": " << gate.summary() << "\n";
      if (!gate.ok) ++failures;
    }
  }

  return failures == 0 ? 0 : 1;
}
