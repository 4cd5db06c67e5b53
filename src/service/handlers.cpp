#include "service/handlers.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "bench_core/sweep_io.hpp"
#include "common/base64.hpp"
#include "common/json.hpp"
#include "guest/runner.hpp"
#include "model/advisor.hpp"
#include "model/calibrate.hpp"
#include "model/params_io.hpp"
#include "obs/prometheus.hpp"
#include "sim/config.hpp"

namespace am::service {

namespace {

bench::WorkloadMode workload_mode(const std::string& mode) {
  if (mode == "private") return bench::WorkloadMode::kLowContention;
  if (mode == "mixed") return bench::WorkloadMode::kMixedReadWrite;
  if (mode == "zipf") return bench::WorkloadMode::kZipf;
  return bench::WorkloadMode::kHighContention;
}

void write_prediction(JsonWriter& w, const PointQuery& q,
                      const model::Prediction& p) {
  w.begin_object();
  w.kv("machine", q.machine);
  w.kv("mode", q.mode);
  w.kv("prim", to_string(p.prim));
  w.kv("threads", std::uint64_t{p.threads});
  w.kv("work", p.work);
  w.kv("regime", model::to_string(p.regime));
  w.kv("crossover_work", p.crossover_work);
  w.kv("mean_transfer_cycles", p.mean_transfer_cycles);
  w.kv("hold_cycles", p.hold_cycles);
  w.kv("throughput_ops_per_kcycle", p.throughput_ops_per_kcycle);
  w.kv("throughput_mops", p.throughput_mops);
  w.kv("latency_cycles", p.latency_cycles);
  w.kv("success_rate", p.success_rate);
  w.kv("attempts_per_op", p.attempts_per_op);
  w.kv("fairness_jain", p.fairness_jain);
  w.kv("energy_per_op_nj", p.energy_per_op_nj);
  w.end_object();
}

void write_advice(JsonWriter& w, const model::Advice& a) {
  w.begin_object();
  w.kv("scenario", a.scenario);
  w.kv("recommended", a.recommended);
  w.key("options").begin_array();
  for (const model::Option& o : a.options) {
    w.begin_object();
    w.kv("name", o.name);
    w.kv("throughput_mops", o.throughput_mops);
    w.kv("note", o.note);
    w.end_object();
  }
  w.end_array();
  w.kv("rationale", a.rationale);
  w.end_object();
}

/// ExecutionBackend that replays client-supplied probe measurements. The
/// calibration procedure asks for specific workloads (single-threaded
/// private runs per primitive, a shared FAA thread sweep); this backend
/// answers each from the sample table and reports zero ops for probes the
/// client did not measure, which calibrate() skips.
class SampleReplayBackend final : public bench::ExecutionBackend {
 public:
  SampleReplayBackend(const CalibrateQuery& q, std::uint32_t cores,
                      double freq_ghz)
      : machine_(q.machine), cores_(cores), freq_ghz_(freq_ghz) {
    for (const CalibrateSample& s : q.samples) {
      samples_[key(s.mode == "private", s.prim, s.threads)] = s.cycles_per_op;
    }
    // The replayed probes are recorded here and dropped with the backend,
    // never in the hosting process's run log.
    set_run_recorder(&replayed_);
  }

  std::string name() const override { return "client"; }
  std::string machine_name() const override { return machine_; }
  std::uint32_t max_threads() const override { return cores_; }
  double freq_ghz() const override { return freq_ghz_; }

 private:
  static std::uint64_t key(bool is_private, Primitive p,
                           std::uint32_t threads) {
    return (std::uint64_t{is_private} << 48) |
           (std::uint64_t{static_cast<std::uint8_t>(p)} << 32) | threads;
  }

  bench::MeasuredRun do_run(const bench::WorkloadConfig& config) override {
    bench::MeasuredRun run;
    run.backend = "client";
    run.machine = machine_;
    run.freq_ghz = freq_ghz_;
    run.threads.resize(config.threads);
    const bool is_private =
        config.mode == bench::WorkloadMode::kLowContention;
    const auto it = samples_.find(key(is_private, config.prim, config.threads));
    if (it == samples_.end()) return run;  // unmeasured probe: zero ops
    // Synthesize a run whose cycles-per-op ratio is exactly the client's
    // sample: 1e6 ops over cycles_per_op * 1e6 cycles.
    constexpr std::uint64_t kOps = 1'000'000;
    run.duration_cycles = it->second * static_cast<double>(kOps);
    run.threads[0].ops = kOps;
    run.threads[0].successes = kOps;
    run.threads[0].attempts = kOps;
    return run;
  }

  std::string machine_;
  std::uint32_t cores_;
  double freq_ghz_;
  std::map<std::uint64_t, double> samples_;
  std::vector<bench::RecordedRun> replayed_;
};

/// The seed of a simulate request's point: index 0 of a sweep based at the
/// request's seed.
std::uint64_t simulate_seed(const PointQuery& q) {
  return bench::point_seed(q.seed, 0);
}

}  // namespace

ServiceCore::ServiceCore(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity, config_.cache_shards) {
  for (const std::string_view preset : sim::kPresetNames) {
    const std::string name(preset);
    models_.try_emplace(
        name, model::ModelParams::from_machine(sim::preset_by_name(name)));
  }
}

void ServiceCore::append_stats(JsonWriter& w) const {
  const CacheCounters cache = cache_.counters();
  w.key("cache").begin_object();
  w.kv("capacity", std::uint64_t{cache_.capacity()});
  w.kv("shards", std::uint64_t{cache_.shard_count()});
  w.kv("entries", cache.entries);
  w.kv("hits", cache.hits);
  w.kv("misses", cache.misses);
  w.kv("insertions", cache.insertions);
  w.kv("evictions", cache.evictions);
  const std::uint64_t lookups = cache.hits + cache.misses;
  w.kv("hit_rate", lookups > 0
                       ? static_cast<double>(cache.hits) /
                             static_cast<double>(lookups)
                       : 0.0);
  w.end_object();
}

void ServiceCore::append_metrics(obs::metrics::PromWriter& w) const {
  constexpr auto kCounter = obs::metrics::Type::kCounter;
  const CacheCounters cache = cache_.counters();
  w.single("am_cache_hits_total",
           "Prediction-cache lookups served from memory", kCounter,
           cache.hits);
  w.single("am_cache_misses_total",
           "Prediction-cache lookups that fell through", kCounter,
           cache.misses);
  w.single("am_cache_insertions_total", "Prediction-cache entries inserted",
           kCounter, cache.insertions);
  w.single("am_cache_evictions_total",
           "Prediction-cache entries evicted (LRU)", kCounter,
           cache.evictions);
}

HandleResult ServiceCore::handle(const Request& r, const RequestContext* ctx) {
  HandleResult out;
  if (r.kind == RequestKind::kPing) {
    out.response = make_result_response(r, "{\"pong\":true}");
    return out;
  }

  std::string key;
  if (r.cacheable()) {
    key = request_cache_key(r);
    if (auto cached = cache_.get(key)) {
      out.response = make_result_response(r, *cached);
      out.cache_hit = true;
      return out;
    }
  }

  std::string error;
  std::string error_code;
  std::string result;
  switch (r.kind) {
    case RequestKind::kPredict: result = run_predict(r.point, &error); break;
    case RequestKind::kAdvise: result = run_advise(r.advise, &error); break;
    case RequestKind::kCalibrate:
      result = run_calibrate(r.calibrate, &error);
      break;
    case RequestKind::kSimulate:
      result = run_simulate(r.point, config_.sim_cache_dir,
                            config_.max_point_cycles,
                            ctx != nullptr ? ctx->trace : nullptr, &error);
      break;
    case RequestKind::kRunGuest:
      result = run_guest(r.guest, &error, &error_code, ctx);
      break;
    case RequestKind::kStats:
    case RequestKind::kPing:
    case RequestKind::kMetrics:
      error = "kind not handled by ServiceCore";
      break;
  }
  if (!error.empty()) {
    out.response = error_code.empty()
                       ? make_error_response(r.id, error)
                       : make_error_response(r.id, error_code, error);
    out.ok = false;
    return out;
  }
  if (!key.empty()) cache_.put(key, result);
  out.response = make_result_response(r, result);
  return out;
}

std::string ServiceCore::run_predict(const PointQuery& q, std::string* error) {
  const model::BouncingModel& model = models_.at(q.machine);
  const std::uint32_t cores = model.params().cores;
  if (q.threads > cores) {
    *error = "threads=" + std::to_string(q.threads) + " exceeds " + q.machine +
             "'s " + std::to_string(cores) + " cores";
    return "";
  }
  model::Prediction p;
  if (q.mode == "private") {
    p = model.predict_private(q.prim, q.threads, q.work);
  } else if (q.mode == "mixed") {
    p = model.predict_mixed(q.prim, q.write_fraction, q.threads, q.work);
  } else if (q.mode == "zipf") {
    p = model.predict_zipf(q.prim, q.threads, q.work,
                           static_cast<std::size_t>(q.zipf_lines), q.zipf_s);
  } else {
    p = model.predict(q.prim, q.threads, q.work);
  }
  std::ostringstream os;
  JsonWriter w(os);
  write_prediction(w, q, p);
  return os.str();
}

std::string ServiceCore::run_advise(const AdviseQuery& q, std::string* error) {
  const model::BouncingModel& model = models_.at(q.machine);
  const std::uint32_t cores = model.params().cores;
  if (q.threads > cores) {
    *error = "threads=" + std::to_string(q.threads) + " exceeds " + q.machine +
             "'s " + std::to_string(cores) + " cores";
    return "";
  }
  std::ostringstream os;
  JsonWriter w(os);
  if (q.target == "backoff") {
    const double backoff = model::recommended_backoff_cycles(model, q.threads);
    w.begin_object();
    w.kv("machine", q.machine);
    w.kv("threads", std::uint64_t{q.threads});
    w.kv("backoff_cycles", backoff);
    w.kv("crossover_work",
         model.crossover_work(Primitive::kCasLoop, q.threads));
    w.end_object();
  } else if (q.target == "lock") {
    write_advice(w, model::advise_lock(model, q.threads, q.critical,
                                       q.outside));
  } else {
    write_advice(w, model::advise_counter(model, q.threads, q.work));
  }
  return os.str();
}

std::string ServiceCore::run_calibrate(const CalibrateQuery& q,
                                       std::string* error) {
  const sim::MachineConfig mc = sim::preset_by_name(q.machine);
  const model::ModelParams skeleton = model::ModelParams::from_machine(mc);
  SampleReplayBackend backend(q, mc.cores, mc.freq_ghz);

  // The client's shared-sweep thread counts drive the transfer fit; probing
  // only what was measured keeps the fit exactly as informative as the
  // samples.
  model::CalibrationOptions options;
  for (const CalibrateSample& s : q.samples) {
    if (s.mode == "shared" && s.threads >= 2) {
      options.sweep_threads.push_back(s.threads);
    }
  }
  // Without an explicit sweep, calibrate() would probe its default thread
  // counts against the replay backend's zero-op blanks and fit noise.
  const model::Calibration cal =
      options.sweep_threads.empty()
          ? model::Calibration{}
          : model::calibrate(backend, skeleton, options);
  if (!cal.ok) {
    *error = "calibration failed: need at least one shared FAA sample with "
             "threads >= 2 plus private local-cost samples";
    return "";
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("machine", q.machine);
  w.kv("backend", cal.backend);
  w.kv("ok", cal.ok);
  w.kv("t_near", cal.t_near);
  w.kv("t_far", cal.t_far);
  w.kv("fit_r_squared", cal.fit_r_squared);
  w.kv("hop_fit", cal.hop_fit);
  if (cal.hop_fit) {
    w.kv("t_base", cal.t_base);
    w.kv("t_per_hop", cal.t_per_hop);
    w.kv("hop_fit_r_squared", cal.hop_fit_r_squared);
  }
  w.key("local_cost").begin_object();
  for (Primitive p : all_primitives()) {
    w.kv(to_string(p), cal.local_cost[static_cast<std::size_t>(p)]);
  }
  w.end_object();
  // The calibrated parameter set in the amp1 persistence format: clients
  // save this once and load it in later runs (params_io round-trips it).
  std::ostringstream amp;
  model::save_params(cal.apply_to(skeleton), amp);
  w.kv("amp1", amp.str());
  w.kv("log", cal.log);
  w.end_object();
  return os.str();
}

bench::WorkloadConfig simulate_workload(const PointQuery& q) {
  bench::WorkloadConfig workload;
  workload.mode = workload_mode(q.mode);
  workload.prim = q.prim;
  workload.threads = q.threads;
  workload.work = static_cast<bench::Cycles>(q.work);
  workload.write_fraction = q.write_fraction;
  workload.zipf_lines = static_cast<std::size_t>(q.zipf_lines);
  workload.zipf_s = q.zipf_s;
  return workload;
}

std::string run_simulate(const PointQuery& q, const std::string& disk_dir,
                         std::int64_t max_point_cycles, obs::TraceSink* trace,
                         std::string* error) {
  const sim::MachineConfig mc = sim::preset_by_name(q.machine);
  if (q.threads > mc.cores) {
    *error = "threads=" + std::to_string(q.threads) + " exceeds " + q.machine +
             "'s " + std::to_string(mc.cores) + " cores";
    return "";
  }
  // Trace continuity: a sink in the request context makes the simulator's
  // protocol-level events (issue/grant/done per coherence transaction) land
  // in the same trace file as the server's request span, so a slow simulate
  // can be drilled into by request id. Disk hits run no machine and emit
  // nothing — response bytes are identical either way.
  const bench::PointRun point = bench::run_sweep_point(
      [&mc, max_point_cycles, trace](std::uint64_t seed) {
        bench::SimBackendOptions options;
        options.watchdog =
            bench::watchdog_for_budget(max_point_cycles, options);
        auto backend = std::make_unique<bench::SimBackend>(mc, options, seed);
        if (trace != nullptr) backend->set_sink(trace);
        return backend;
      },
      simulate_workload(q), simulate_seed(q), disk_dir);
  if (point.io_errors > 0) {
    std::fprintf(stderr, "warning: simulate: %llu disk-tier I/O error(s); "
                 "the point ran uncached\n",
                 static_cast<unsigned long long>(point.io_errors));
  }
  if (point.status != bench::PointStatus::kOk) {
    *error = std::string("simulation ") + bench::to_string(point.status) +
             (point.message.empty() ? "" : ": " + point.message);
    return "";
  }
  return render_simulate_result(q, point.result);
}

std::string cached_simulate_result(const PointQuery& q,
                                   const std::string& disk_dir) {
  if (disk_dir.empty()) return "";
  const sim::MachineConfig mc = sim::preset_by_name(q.machine);
  if (q.threads > mc.cores) return "";
  // The key run_sweep_point files run_simulate's point under: a SimBackend
  // with default windows (the watchdog is not part of the key).
  const std::string key = bench::sweep_cache_key(
      bench::sim_backend_cache_identity(mc, bench::SimBackendOptions{}),
      simulate_workload(q), simulate_seed(q));
  const std::string path = bench::sweep_cache_path(disk_dir, key);
  std::string bytes;
  if (bench::sweep::read_file_with_retry(path, bytes) !=
      bench::sweep::IoResult::kOk) {
    return "";
  }
  const auto run = bench::parse_measured_run(bytes, key);
  return run.has_value() ? render_simulate_result(q, *run) : "";
}

std::string ServiceCore::run_guest(const GuestQuery& q, std::string* error,
                                   std::string* error_code,
                                   const RequestContext* ctx) {
  // Per-request counters; registration is idempotent, so resolving them
  // here (the cold path — a cache hit never reaches run_guest) is fine.
  obs::metrics::Registry& reg = obs::metrics::default_registry();
  obs::metrics::Counter* runs =
      config_.metrics
          ? &reg.counter("am_guest_runs_total", "run_guest executions")
          : nullptr;
  obs::metrics::Counter* errors =
      config_.metrics ? &reg.counter("am_guest_errors_total",
                                     "run_guest executions that failed")
                      : nullptr;
  obs::metrics::Counter* instret =
      config_.metrics ? &reg.counter("am_guest_instructions_total",
                                     "guest instructions retired")
                      : nullptr;
  obs::metrics::Counter* cycles =
      config_.metrics ? &reg.counter("am_guest_cycles_total",
                                     "simulated cycles spent on guest runs")
                      : nullptr;
  if (runs != nullptr) runs->inc();

  guest::GuestRunConfig config;
  config.backend = "sim:" + q.machine + ":" + q.memory_model;
  config.harts = q.harts;
  config.seed = q.seed;
  config.max_cycles = config_.guest_max_cycles;
  config.guest.max_instructions = config_.guest_max_instructions;
  config.guest.max_stdout_bytes = 4096;  // response-size guard
  config.trace = ctx != nullptr ? ctx->trace : nullptr;

  const guest::GuestRunResult result =
      guest::run_guest(q.elf.data(), q.elf.size(), config);

  if (instret != nullptr) instret->inc(result.total_instructions);
  if (cycles != nullptr) cycles->inc(result.completion_cycles);
  if (!result.error.ok()) {
    if (errors != nullptr) errors->inc();
    *error = result.error.code + ": " + result.error.message;
    *error_code = errcode::kGuestError;
    return "";
  }

  const bench::MeasuredRun run = guest::to_measured_run(result);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("machine", q.machine);
  w.kv("memory_model", q.memory_model);
  w.kv("harts", std::uint64_t{q.harts});
  w.kv("seed", q.seed);
  w.kv("elf_sha", q.elf_sha);
  w.kv("completion_cycles", result.completion_cycles);
  w.kv("instructions", result.total_instructions);
  w.kv("atomics", result.total_atomics);
  w.kv("yields", result.total_yields);
  w.kv("sc_failures", result.total_sc_failures);
  w.kv("guest_ipc", result.instructions_per_cycle());
  w.kv("atomics_per_kcycle", result.atomics_per_kcycle());
  w.key("hart_reports").begin_array();
  for (const guest::HartReport& h : result.hart_reports) {
    w.begin_object();
    w.kv("exit_code", std::uint64_t{h.exit_code});
    w.kv("instructions", h.instructions);
    w.kv("atomics", h.atomics);
    w.kv("sc_failures", h.sc_failures);
    w.end_object();
  }
  w.end_array();
  w.key("transfers").begin_object();
  w.kv("local_hit", run.transfers[0]);
  w.kv("near", run.transfers[1]);
  w.kv("far", run.transfers[2]);
  w.kv("memory", run.transfers[3]);
  w.end_object();
  w.kv("invalidations", run.invalidations);
  w.kv("memory_fetches", run.memory_fetches);
  if (run.energy_valid) {
    w.kv("energy_package_j", run.energy_package_j);
  } else {
    w.kv_null("energy_package_j");
  }
  // Guest stdout may be arbitrary bytes; ship it base64 so the response
  // line stays valid JSON regardless of what the binary printed.
  w.kv("stdout_b64", base64_encode(result.stdout_bytes));
  w.end_object();
  return os.str();
}

std::string render_simulate_result(const PointQuery& q,
                                   const bench::MeasuredRun& run) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("machine", q.machine);
  w.kv("mode", q.mode);
  w.kv("prim", to_string(q.prim));
  w.kv("threads", std::uint64_t{q.threads});
  w.kv("work", q.work);
  w.kv("seed", q.seed);
  w.kv("duration_cycles", run.duration_cycles);
  w.kv("total_ops", run.total_ops());
  w.kv("total_attempts", run.total_attempts());
  w.kv("throughput_ops_per_kcycle", run.throughput_ops_per_kcycle());
  w.kv("throughput_mops", run.throughput_mops());
  w.kv("mean_latency_cycles", run.mean_latency_cycles());
  w.kv("success_rate", run.success_rate());
  w.kv("attempts_per_op", run.attempts_per_op());
  w.kv("fairness_jain", run.jain_fairness());
  w.key("transfers").begin_object();
  w.kv("local_hit", run.transfers[0]);
  w.kv("near", run.transfers[1]);
  w.kv("far", run.transfers[2]);
  w.kv("memory", run.transfers[3]);
  w.end_object();
  w.kv("invalidations", run.invalidations);
  w.kv("memory_fetches", run.memory_fetches);
  w.kv("evictions", run.evictions);
  if (run.energy_valid) {
    w.kv("energy_per_op_nj", run.energy_per_op_nj());
  } else {
    w.kv_null("energy_per_op_nj");
  }
  w.end_object();
  return os.str();
}

}  // namespace am::service
