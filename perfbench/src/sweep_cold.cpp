// sweep_cold: the paper-reproduction job. A batch SweepEngine grid with no
// disk cache, run round after round until the time budget is spent.
//
// The grid is fixed: both presets (xeon, knl) x FAA/SWAP/CAS/CASLOOP/LOAD x
// shared/private/mixed/zipf sharing x 4/16 threads x work at 0.5 w* and 2 w*
// (w* = the model's crossover work), plus a TSO slice. The seed picks the
// submission order and, per point, one of kVariants simulator seeds. Every
// (point, variant) result has a digest committed in golden/sweep_cold.txt,
// so any seed is checked bit-exactly against the same golden file.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "common/random.hpp"
#include "common/sha256.hpp"
#include "common/stats.hpp"
#include "model/bouncing_model.hpp"
#include "model/params.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"

namespace perfbench {
namespace {

using am::Primitive;
using am::bench::WorkloadConfig;
using am::bench::WorkloadMode;

constexpr unsigned kJobs = 2;              // pool width; <= nproc
constexpr std::uint64_t kVariants = 4;     // simulator seeds per grid point
constexpr std::uint64_t kBackendSeed = 1;  // XORed into config.seed
constexpr std::uint64_t kEngineBase = 0x5eedULL;
const char* const kGoldenFile = "golden/sweep_cold.txt";
constexpr std::size_t kMaxSamples = 400'000;  // per-point latencies kept

/// The library's default measurement windows, as the bench binaries use.
am::bench::SimBackendOptions sim_options() { return {}; }

struct GridPoint {
  std::string name;     ///< stable identity, the golden-file key
  std::string machine;  ///< xeon | knl
  bool tso = false;
  std::string sharing;  ///< shared | private | mixed | zipf
  WorkloadConfig config;
};

std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) h = mix(h, static_cast<unsigned char>(c));
  return h;
}

std::string work_label(double f) { return f < 1.0 ? "w0.5" : "w2"; }

std::vector<GridPoint> build_grid() {
  const Primitive prims[] = {Primitive::kFaa, Primitive::kSwap,
                             Primitive::kCas, Primitive::kCasLoop,
                             Primitive::kLoad};
  const std::pair<const char*, WorkloadMode> sharings[] = {
      {"shared", WorkloadMode::kHighContention},
      {"private", WorkloadMode::kLowContention},
      {"mixed", WorkloadMode::kMixedReadWrite},
      {"zipf", WorkloadMode::kZipf}};
  const std::uint32_t thread_counts[] = {4, 16};
  const double work_factors[] = {0.5, 2.0};

  std::vector<GridPoint> grid;
  for (const char* machine : {"xeon", "knl"}) {
    const am::model::BouncingModel model(
        am::model::ModelParams::from_machine(am::sim::preset_by_name(machine)));
    auto add = [&](bool tso, const char* sharing, WorkloadMode mode,
                   Primitive prim, std::uint32_t threads, double f) {
      GridPoint p;
      p.machine = machine;
      p.tso = tso;
      p.sharing = sharing;
      p.config.mode = mode;
      p.config.prim = prim;
      p.config.threads = threads;
      p.config.work = static_cast<am::bench::Cycles>(std::max(
          10.0, std::round(f * model.crossover_work(prim, threads))));
      p.name = std::string(machine) + (tso ? "-tso" : "") + "/" + sharing +
               "/" + am::to_string(prim) + "/t" + std::to_string(threads) +
               "/" + work_label(f);
      grid.push_back(p);
    };
    for (const auto& [sharing, mode] : sharings) {
      for (const Primitive prim : prims) {
        for (const std::uint32_t t : thread_counts) {
          for (const double f : work_factors) add(false, sharing, mode, prim, t, f);
        }
      }
    }
    for (const Primitive prim : {Primitive::kFaa, Primitive::kCas}) {
      for (const std::uint32_t t : thread_counts) {
        add(true, "shared", WorkloadMode::kHighContention, prim, t, 0.5);
      }
    }
  }
  return grid;
}

am::sim::MachineConfig machine_config(const GridPoint& p) {
  am::sim::MachineConfig mc = am::sim::preset_by_name(p.machine);
  if (p.tso) mc.memory_model = am::sim::MemoryModel::kTso;
  return mc;
}

/// Simulator seed of @p point under @p variant.
std::uint64_t point_sim_seed(const GridPoint& p, std::uint64_t variant) {
  return mix(name_hash(p.name), variant) | 1;
}

std::string run_digest(const am::bench::MeasuredRun& run) {
  return am::sha256_hex(am::bench::serialize_measured_run(run, "perfbench"), 16);
}

double model_throughput(const am::model::BouncingModel& m, const GridPoint& p) {
  const WorkloadConfig& c = p.config;
  const double w = static_cast<double>(c.work);
  am::model::Prediction pred;
  if (p.sharing == "private") {
    pred = m.predict_private(c.prim, c.threads, w);
  } else if (p.sharing == "mixed") {
    pred = m.predict_mixed(c.prim, c.write_fraction, c.threads, w);
  } else if (p.sharing == "zipf") {
    pred = m.predict_zipf(c.prim, c.threads, w, c.zipf_lines, c.zipf_s);
  } else {
    pred = m.predict(c.prim, c.threads, w);
  }
  return pred.throughput_ops_per_kcycle;
}

/// Everything a round needs, built once per run (and timed as set-up).
struct Plan {
  std::vector<GridPoint> grid;
  std::vector<std::size_t> order;              ///< submission order
  std::vector<std::uint64_t> variant;          ///< per grid point
  std::unordered_map<std::uint64_t, std::size_t> by_engine_seed;
  std::unordered_map<std::uint64_t, std::size_t> by_sim_seed;
  std::vector<am::sim::MachineConfig> configs;  ///< per grid point
  std::map<std::string, std::string> golden;    ///< "name#v" -> digest
};

bool load_golden(const std::string& path, std::map<std::string, std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string name;
  std::string variant;
  std::string digest;
  while (in >> name >> variant >> digest) (*out)[name + "#" + variant] = digest;
  return !out->empty();
}

Plan make_plan(const Options& opt, bool need_golden, bool* ok) {
  Plan plan;
  plan.grid = build_grid();
  const std::size_t n = plan.grid.size();
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
  am::Xoshiro256 rng(mix(opt.seed, 0x0123));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(plan.order[i - 1], plan.order[rng.next_below(i)]);
  }
  plan.variant.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.variant[i] = mix(opt.seed, i) % kVariants;
    plan.grid[i].config.seed = point_sim_seed(plan.grid[i], plan.variant[i]);
    plan.by_sim_seed[plan.grid[i].config.seed] = i;
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    plan.by_engine_seed[am::bench::point_seed(kEngineBase, pos)] =
        plan.order[pos];
  }
  // One Machine per distinct configuration: presets, interconnect and
  // route tables are what a sweep pays before its first point.
  std::map<std::string, std::unique_ptr<am::sim::Machine>> built;
  for (const GridPoint& p : plan.grid) {
    plan.configs.push_back(machine_config(p));
    const std::string key = p.machine + (p.tso ? "-tso" : "");
    if (built.count(key) == 0) {
      built[key] = std::make_unique<am::sim::Machine>(plan.configs.back(), 1);
    }
  }
  *ok = plan.by_engine_seed.size() == n && plan.by_sim_seed.size() == n;
  if (need_golden) {
    *ok = *ok && load_golden(opt.bench_dir + "/" + kGoldenFile, &plan.golden);
  }
  return plan;
}

struct RoundResult {
  double wall_s = 0.0;
  std::vector<TimedBackend::Sample> samples;
  std::vector<double> build_us;
  std::vector<const am::bench::MeasuredRun*> runs;  ///< by submission position
  std::size_t failed_points = 0;
};

/// Runs the whole grid once through one SweepEngine. @p counting attaches
/// an event-counting TraceSink to every backend.
void run_round(const Plan& plan, bool counting,
               std::vector<std::unique_ptr<am::bench::SweepEngine>>* keep,
               RoundResult* out, std::vector<std::size_t>* submitted) {
  std::mutex mu;
  am::bench::SweepOptions so;
  so.jobs = kJobs;
  so.base_seed = kEngineBase;
  const am::bench::SimBackendOptions options = sim_options();
  auto factory = [&](std::uint64_t engine_seed)
      -> std::unique_ptr<am::bench::ExecutionBackend> {
    const auto t0 = Clock::now();
    const std::size_t idx = plan.by_engine_seed.at(engine_seed);
    auto sim = std::make_unique<am::bench::SimBackend>(plan.configs[idx],
                                                       options, kBackendSeed);
    const auto t1 = Clock::now();
    std::unique_ptr<CountingSink> sink;
    if (counting) {
      sink = std::make_unique<CountingSink>();
      sim->set_sink(sink.get());
      std::lock_guard<std::mutex> lock(mu);
      out->build_us.push_back(micros_between(t0, t1));
    }
    return std::make_unique<TimedBackend>(std::move(sim), std::move(sink),
                                          &out->samples, &mu);
  };
  auto engine = std::make_unique<am::bench::SweepEngine>(factory, so);
  const auto t0 = Clock::now();
  submitted->clear();
  for (const std::size_t idx : plan.order) {
    submitted->push_back(engine->submit(plan.grid[idx].config));
  }
  engine->drain();
  out->wall_s = seconds_between(t0, Clock::now());
  // drain() copied every run into the process-wide log, which nothing here
  // reads; drop it so memory stays flat across rounds.
  am::bench::clear_run_log();
  out->runs.clear();
  for (const std::size_t i : *submitted) {
    out->runs.push_back(engine->result_or_null(i));
  }
  out->failed_points = engine->failed_points().size();
  keep->push_back(std::move(engine));
}

/// Checks every point of a finished round against the golden digests.
void check_round(const Plan& plan, const RoundResult& rr, Report& rep) {
  for (std::size_t pos = 0; pos < plan.order.size(); ++pos) {
    const std::size_t idx = plan.order[pos];
    const GridPoint& p = plan.grid[idx];
    ++rep.attempted;
    const am::bench::MeasuredRun* run = rr.runs[pos];
    if (run == nullptr) {
      rep.fail("point " + p.name + " failed");
      continue;
    }
    const std::string key = p.name + "#" + std::to_string(plan.variant[idx]);
    const auto it = plan.golden.find(key);
    if (it == plan.golden.end() || it->second != run_digest(*run)) {
      rep.fail("point " + key + " digest " + run_digest(*run) +
               " does not match the golden file");
    }
  }
}

double grid_mape(const Plan& plan, const RoundResult& rr) {
  std::map<std::string, am::model::BouncingModel> models;
  std::vector<double> predicted;
  std::vector<double> simulated;
  for (std::size_t pos = 0; pos < plan.order.size(); ++pos) {
    const GridPoint& p = plan.grid[plan.order[pos]];
    const am::bench::MeasuredRun* run = rr.runs[pos];
    if (p.tso || run == nullptr) continue;  // the model has no TSO terms
    auto it = models.find(p.machine);
    if (it == models.end()) {
      it = models
               .emplace(p.machine,
                        am::model::BouncingModel(am::model::ModelParams::from_machine(
                            am::sim::preset_by_name(p.machine))))
               .first;
    }
    predicted.push_back(model_throughput(it->second, p));
    simulated.push_back(run->throughput_ops_per_kcycle());
  }
  return am::mape(predicted, simulated) * 100.0;
}

}  // namespace

Report run_sweep_cold(const Options& opt) {
  Report rep;
  // Set-up: grid (model w* per point), golden digests, presets and route
  // tables. It takes ~15 ms, so it is done nine times; the median is
  // reported.
  std::vector<double> setups;
  Plan plan;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    bool ok = false;
    plan = make_plan(opt, /*need_golden=*/true, &ok);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (!ok) {
      rep.fail("cannot build the sweep plan or read " + opt.bench_dir + "/" +
               kGoldenFile);
      return rep;
    }
  }

  std::vector<std::unique_ptr<am::bench::SweepEngine>> engines;
  std::vector<std::size_t> submitted;
  std::vector<Completion> done;
  preallocate(done, kMaxSamples);
  std::uint64_t points = 0;
  double mape_pct = 0.0;

  // Timed, untraced phase: whole rounds until the budget is spent (half of
  // it in a traced run, whose other half is the traced phase).
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const SimCounters sim0 = SimCounters::read();
  const auto t0 = Clock::now();
  do {
    RoundResult rr;
    run_round(plan, /*counting=*/false, &engines, &rr, &submitted);
    check_round(plan, rr, rep);
    if (points == 0) mape_pct = grid_mape(plan, rr);
    points += plan.order.size();
    for (const auto& s : rr.samples) {
      if (done.size() < kMaxSamples) {
        done.push_back({static_cast<float>(seconds_between(t0, s.end)),
                        static_cast<float>(s.run_us / 1000.0)});
      }
    }
    engines.clear();
  } while (seconds_between(t0, Clock::now()) < budget);
  const double elapsed = seconds_between(t0, Clock::now());
  const SimCounters sim_done = SimCounters::read().minus(sim0);
  const double rss_mb = peak_rss_mb();

  set_latency_metrics(rep, done, points, elapsed, median(setups), rss_mb);
  rep.set("sim_ops_per_s", static_cast<double>(sim_done.ops) / elapsed, "1/s");
  rep.set("model_tput_mape_pct", mape_pct, "%");
  const double untraced_ops_per_s = static_cast<double>(points) / elapsed;

  if (opt.trace) {
    SpanRecorder spans;
    std::vector<double> overhead_us;
    std::map<std::string, std::vector<double>> ns_per_op;
    std::vector<double> build_us;
    std::vector<double> run_ms;
    double busy_us = 0.0;
    double capacity_us = 0.0;
    std::size_t failed_points = 0;
    std::uint64_t traced_points = 0;
    std::uint64_t events_round0 = 0;
    SimCounters counts_round0;
    const auto tt0 = Clock::now();
    for (int round = 0; round == 0 || seconds_between(tt0, Clock::now()) < budget;
         ++round) {
      RoundResult rr;
      const SimCounters before = SimCounters::read();
      const auto r0 = Clock::now();
      run_round(plan, /*counting=*/true, &engines, &rr, &submitted);
      const auto r1 = Clock::now();
      check_round(plan, rr, rep);
      traced_points += plan.order.size();
      failed_points += rr.failed_points;
      const std::int64_t parent = spans.add(
          "sweep.round", static_cast<std::uint64_t>(round), r0, r1);
      double round_busy = 0.0;
      for (const double b : rr.build_us) {
        build_us.push_back(b);
        round_busy += b;
      }
      for (const auto& s : rr.samples) {
        const GridPoint& p = plan.grid[plan.by_sim_seed.at(s.config.seed)];
        run_ms.push_back(s.run_us / 1000.0);
        round_busy += s.run_us;
        if (s.ops > 0) {
          ns_per_op[p.tso ? "tso" : p.sharing].push_back(
              s.run_us * 1000.0 / static_cast<double>(s.ops));
        }
        spans.add("sim.run", static_cast<std::uint64_t>(round), s.start,
                  s.end, parent, s.track);
        if (round == 0) events_round0 += s.events;
      }
      const double round_capacity = rr.wall_s * 1e6 * kJobs;
      overhead_us.push_back((round_capacity - round_busy) /
                            static_cast<double>(plan.order.size()));
      busy_us += round_busy;
      capacity_us += round_capacity;
      if (round == 0) counts_round0 = SimCounters::read().minus(before);
      engines.clear();
    }
    const double traced_elapsed = seconds_between(tt0, Clock::now());

    rep.set("sweep.engine_overhead_us_p50", median(overhead_us), "us");
    rep.set("sweep.pool_busy_ratio", capacity_us > 0 ? busy_us / capacity_us : 0,
            "ratio");
    rep.set("sweep.failed_points", static_cast<double>(failed_points), "count");
    rep.set("sim.build_us_p50", median(build_us), "us");
    rep.set("sim.run_ms_p50", median(run_ms), "ms");
    for (const char* k : {"shared", "private", "mixed", "zipf", "tso"}) {
      rep.set(std::string("sim.host_ns_per_op.") + k, median(ns_per_op[k]),
              "ns");
    }
    rep.set("sim.ops", static_cast<double>(counts_round0.ops), "count");
    rep.set("sim.cycles", static_cast<double>(counts_round0.cycles), "count");
    rep.set("sim.grants", static_cast<double>(counts_round0.grants), "count");
    rep.set("sim.mesi_transitions",
            static_cast<double>(counts_round0.mesi_transitions), "count");
    rep.set("sim.invalidations",
            static_cast<double>(counts_round0.invalidations), "count");
    rep.set("sim.trace_events", static_cast<double>(events_round0), "count");
    rep.set("model_tput_mape_pct", mape_pct, "%");
    const double traced_ops_per_s =
        static_cast<double>(traced_points) / traced_elapsed;
    rep.set("trace.overhead_ratio", traced_ops_per_s / untraced_ops_per_s,
            "ratio");
    spans.write_perfetto(opt.out_dir + "/trace-sweep_cold-seed" +
                         std::to_string(opt.seed) + ".json");
  }
  return rep;
}

int write_sweep_golden(const Options& opt, const std::string& path) {
  bool ok = false;
  Plan plan = make_plan(opt, /*need_golden=*/false, &ok);
  if (!ok) return 1;
  std::vector<std::string> lines;
  for (std::uint64_t v = 0; v < kVariants; ++v) {
    for (std::size_t i = 0; i < plan.grid.size(); ++i) {
      plan.grid[i].config.seed = point_sim_seed(plan.grid[i], v);
      plan.variant[i] = v;
    }
    std::vector<std::unique_ptr<am::bench::SweepEngine>> engines;
    std::vector<std::size_t> submitted;
    RoundResult rr;
    run_round(plan, false, &engines, &rr, &submitted);
    for (std::size_t pos = 0; pos < plan.order.size(); ++pos) {
      const GridPoint& p = plan.grid[plan.order[pos]];
      if (rr.runs[pos] == nullptr) {
        std::cerr << "golden: point " << p.name << " failed\n";
        return 1;
      }
      lines.push_back(p.name + " " + std::to_string(v) + " " +
                      run_digest(*rr.runs[pos]));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  return out ? 0 : 1;
}

}  // namespace perfbench
