// Byte-identity harness for the simulator core.
//
// Every case replays one deterministic workload through sim::Machine and
// renders an exhaustive text digest of the run: every RunStats field
// (doubles in hexfloat, so equality is bit equality), the final directory
// state of every touched line, the per-core OpResult streams, and the
// SimBackend cache-identity string. The concatenated corpus must equal the
// committed golden snapshot byte for byte. The snapshot was first captured
// from the seed core, so a core that matches it behaves exactly as the seed
// did, and cached sweep results stay valid.
// Deliberate behaviour changes are re-blessed with
// scripts/regen_golden_traces.sh (AM_REGEN_GOLDEN=1), which rewrites the
// corpus files alongside the text traces from sim::Machine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_core/sim_backend.hpp"
#include "conformance/generator.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

#ifndef AM_GOLDEN_DIR
#define AM_GOLDEN_DIR "tests/sim/golden"
#endif

namespace am {
namespace {

// --- digest rendering ------------------------------------------------------

void put_double(std::ostringstream& os, const char* key, double v) {
  os << key << '=' << std::hexfloat << v << std::defaultfloat << '\n';
}

void digest_hist(std::ostringstream& os, const LogHistogram& h) {
  os << "hist.n=" << h.total_count();
  os << " buckets=";
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) != 0) os << i << ':' << h.bucket(i) << ',';
  }
  os << '\n';
  put_double(os, "hist.min", h.observed_min());
  put_double(os, "hist.max", h.observed_max());
  put_double(os, "hist.mean", h.mean());
}

void digest_stats(std::ostringstream& os, const sim::RunStats& rs) {
  os << "measured_cycles=" << rs.measured_cycles << '\n';
  put_double(os, "freq_ghz", rs.freq_ghz);
  for (std::size_t t = 0; t < rs.threads.size(); ++t) {
    const sim::ThreadStats& th = rs.threads[t];
    os << "thread[" << t << "] ops=" << th.ops
       << " succ=" << th.successes << " fail=" << th.failures
       << " attempts=" << th.attempts << " exec=" << th.exec_cycles
       << " wait=" << th.wait_cycles << " work=" << th.work_cycles
       << " lmin=" << th.latency_min << " lmax=" << th.latency_max << '\n';
    os << "  by_prim=";
    for (std::size_t p = 0; p < th.ops_by_prim.size(); ++p) {
      os << th.ops_by_prim[p] << '/' << th.successes_by_prim[p] << ' ';
    }
    os << '\n';
    put_double(os, "  latency_sum", th.latency_sum);
    digest_hist(os, th.latency_hist);
  }
  os << "transfers=";
  for (const std::uint64_t v : rs.transfers) os << v << ' ';
  os << '\n';
  os << "invalidations=" << rs.invalidations
     << " memory_fetches=" << rs.memory_fetches
     << " evictions=" << rs.evictions << '\n';
  for (const sim::LineProfile& lp : rs.line_profiles) {
    os << "line_prof[" << lp.line << "] acc=" << lp.accesses
       << " acq=" << lp.acquisitions << " inv=" << lp.invalidations
       << " qsum=" << lp.queue_depth_sum << " qmax=" << lp.queue_depth_max
       << " hold=" << lp.hold_cycles << " supply=";
    for (const std::uint64_t v : lp.supply) os << v << ' ';
    os << '\n';
  }
  os << "epoch_cycles=" << rs.epoch_cycles << '\n';
  for (const sim::EpochSample& e : rs.epochs) {
    os << "epoch[" << e.start << "] ops=" << e.ops
       << " attempts=" << e.attempts << " wait=" << e.wait_cycles
       << " exec=" << e.exec_cycles << " outmax=" << e.outstanding_max
       << '\n';
  }
  put_double(os, "energy.core_active_j", rs.energy.core_active_j);
  put_double(os, "energy.core_spin_j", rs.energy.core_spin_j);
  put_double(os, "energy.uncore_static_j", rs.energy.uncore_static_j);
  put_double(os, "energy.transfer_j", rs.energy.transfer_j);
  put_double(os, "energy.directory_j", rs.energy.directory_j);
  put_double(os, "energy.memory_j", rs.energy.memory_j);
}

/// Final machine state: every touched line's directory record, ascending.
void digest_state(std::ostringstream& os, const sim::Machine& m) {
  for (const sim::LineId id : m.touched_lines()) {
    const auto snap = m.snapshot_line(id);
    os << "line[" << id << "] owner=";
    if (snap.owner == sim::kNoCore) {
      os << '-';
    } else {
      os << snap.owner;
    }
    os << " st=" << static_cast<int>(snap.owner_state) << " sharers=";
    for (const sim::CoreId c : snap.sharers) os << c << ',';
    os << " val=" << snap.value << " busy=" << snap.busy
       << " q=" << snap.queued << '\n';
  }
}

struct CaseSpec {
  std::string name;
  /// Builds the program; receives nothing, returns an owning pointer plus
  /// an optional results-dump hook run after the program executed.
  std::function<std::unique_ptr<sim::ThreadProgram>()> make_program;
  sim::CoreId active_cores = 8;
  sim::Cycles warmup = 0;
  sim::Cycles measure = sim::Cycles{1} << 30;
  bool profile_lines = false;
  sim::Cycles epoch_cycles = 0;
};

/// Runs one case and renders the full digest.
std::string run_case(const sim::MachineConfig& config, std::uint64_t seed,
                     const CaseSpec& spec) {
  sim::Machine machine(config, seed);
  machine.set_line_profiling(spec.profile_lines);
  machine.set_epoch_cycles(spec.epoch_cycles);
  std::unique_ptr<sim::ThreadProgram> program = spec.make_program();
  const sim::CoreId active =
      std::min<sim::CoreId>(spec.active_cores, machine.core_count());
  const sim::RunStats rs =
      machine.run(*program, active, spec.warmup, spec.measure);

  std::ostringstream os;
  os << "== " << spec.name << " ==\n";
  digest_stats(os, rs);
  digest_state(os, machine);
  // Script programs also pin the per-core OpResult streams the machine
  // reported (the conformance oracle's evidence).
  if (const auto* ms =
          dynamic_cast<const conformance::MultiScriptProgram*>(program.get())) {
    for (std::size_t c = 0; c < ms->results().size(); ++c) {
      os << "results[" << c << "]=";
      for (const OpResult& r : ms->results()[c]) {
        os << r.success << ':' << r.observed << ':' << r.attempts << ' ';
      }
      os << '\n';
    }
  }
  return os.str();
}

// --- the corpus ------------------------------------------------------------

constexpr std::uint64_t kSeeds[] = {101, 202};

const conformance::SharingPattern kPatterns[] = {
    conformance::SharingPattern::kSingleLine,
    conformance::SharingPattern::kPrivate,
    conformance::SharingPattern::kUniform,
    conformance::SharingPattern::kZipf,
    conformance::SharingPattern::kMixed,
};

/// The generated programs outlive the specs (MultiScriptProgram holds a
/// pointer); keep them alive per corpus build.
struct Corpus {
  std::vector<std::unique_ptr<conformance::GeneratedProgram>> scripts;
  std::vector<std::pair<std::uint64_t, CaseSpec>> cases;  ///< (seed, spec)
};

Corpus build_corpus() {
  Corpus corpus;

  // Seeded conformance scripts: all sharing patterns, both seeds.
  for (const std::uint64_t seed : kSeeds) {
    for (const conformance::SharingPattern pat : kPatterns) {
      conformance::GenConfig gen;
      gen.cores = 8;
      gen.ops_per_core = 48;
      gen.lines = 6;
      gen.pattern = pat;
      auto script = std::make_unique<conformance::GeneratedProgram>(
          conformance::generate(seed, gen));
      const conformance::GeneratedProgram* raw = script.get();
      corpus.scripts.push_back(std::move(script));

      CaseSpec spec;
      spec.name = std::string("script/") + conformance::to_string(pat) +
                  "/seed" + std::to_string(seed);
      spec.make_program = [raw] {
        return std::make_unique<conformance::MultiScriptProgram>(*raw);
      };
      spec.active_cores = 8;
      corpus.cases.emplace_back(seed, spec);
    }
  }

  // Stochastic programs: exercise per-op RNG draws, profiling, epoch
  // sampling, and the static-plan fast path (jitter-free HC / LC / sharded).
  {
    CaseSpec spec;
    spec.name = "hc_faa_jitter";  // dynamic path: draws RNG per op
    spec.make_program = [] {
      return std::make_unique<sim::HighContentionProgram>(
          Primitive::kFaa, /*work=*/64, /*line=*/0, /*jitter=*/0.3);
    };
    spec.active_cores = 8;
    spec.warmup = 200;
    spec.measure = 3000;
    spec.profile_lines = true;
    spec.epoch_cycles = 500;
    corpus.cases.emplace_back(7, spec);
  }
  {
    CaseSpec spec;
    spec.name = "hc_casloop_static";  // static plan, CASLOOP retries
    spec.make_program = [] {
      return std::make_unique<sim::HighContentionProgram>(
          Primitive::kCasLoop, /*work=*/0, /*line=*/3);
    };
    spec.active_cores = 6;
    spec.measure = 2500;
    corpus.cases.emplace_back(11, spec);
  }
  {
    CaseSpec spec;
    spec.name = "lc_cas_static";  // static plan, private lines, epochs
    spec.make_program = [] {
      return std::make_unique<sim::LowContentionProgram>(Primitive::kCas,
                                                         /*work=*/16);
    };
    spec.active_cores = 8;
    spec.warmup = 100;
    spec.measure = 2000;
    spec.epoch_cycles = 400;
    corpus.cases.emplace_back(13, spec);
  }
  {
    CaseSpec spec;
    spec.name = "sharded_faa_static";  // static plan + profiling
    spec.make_program = [] {
      return std::make_unique<sim::ShardedProgram>(Primitive::kFaa,
                                                   /*work=*/8,
                                                   /*group_size=*/4);
    };
    spec.active_cores = 8;
    spec.measure = 2000;
    spec.profile_lines = true;
    corpus.cases.emplace_back(17, spec);
  }
  {
    CaseSpec spec;
    spec.name = "zipf_swap";  // dynamic path: sampler draws per op
    spec.make_program = [] {
      return std::make_unique<sim::ZipfSharingProgram>(
          Primitive::kSwap, /*work=*/24, /*n_lines=*/16, /*s=*/1.2);
    };
    spec.active_cores = 8;
    spec.measure = 2500;
    corpus.cases.emplace_back(19, spec);
  }
  {
    CaseSpec spec;
    spec.name = "mixed_rw_cas";  // dynamic path: per-op prim draw
    spec.make_program = [] {
      return std::make_unique<sim::MixedReadWriteProgram>(
          Primitive::kCas, /*write_fraction=*/0.3, /*work=*/16);
    };
    spec.active_cores = 12;
    spec.measure = 2500;
    corpus.cases.emplace_back(23, spec);
  }

  return corpus;
}

/// Cache-identity keys for the preset — locks MachineConfig::fingerprint()
/// (and thus every sweep-cache key) into the golden corpus.
std::string identity_block(const sim::MachineConfig& config) {
  bench::SimBackendOptions opts;
  bench::SimBackend backend(config, opts);
  return "cache_identity=" + backend.cache_identity() + "\n";
}

std::string corpus_digest(const sim::MachineConfig& config) {
  const Corpus corpus = build_corpus();
  std::string out = identity_block(config);
  for (const auto& [seed, spec] : corpus.cases) {
    out += run_case(config, seed, spec);
  }
  return out;
}

// --- tests -----------------------------------------------------------------

void check_preset(const sim::MachineConfig& config,
                  const std::string& golden_name) {
  const std::string fresh = corpus_digest(config);
  const std::string path = std::string(AM_GOLDEN_DIR) + "/" + golden_name;
  if (std::getenv("AM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << fresh;
    GTEST_SKIP() << "golden corpus regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run scripts/regen_golden_traces.sh to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(fresh, expected.str())
      << "run digest diverged from " << path
      << " — if the change is intentional, re-bless with "
         "scripts/regen_golden_traces.sh";
}

TEST(CoreEquivalence, XeonPreset) {
  check_preset(sim::xeon_e5_2x18(), "xeon_e5_2x18_equivalence.digest");
}

TEST(CoreEquivalence, KnlPreset) {
  check_preset(sim::knl_64(), "knl_64_equivalence.digest");
}

TEST(CoreEquivalence, TestMachinePreset) {
  check_preset(sim::test_machine(8), "test_machine_8_equivalence.digest");
}

}  // namespace
}  // namespace am
