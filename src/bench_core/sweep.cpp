#include "bench_core/sweep.hpp"

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_core/sweep_io.hpp"
#include "common/json.hpp"
#include "common/sha256.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"

namespace am::bench {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t point_seed(std::uint64_t base_seed, std::uint64_t index) noexcept {
  const std::uint64_t s = splitmix64(splitmix64(base_seed) ^ index);
  return s == 0 ? 0x9e3779b97f4a7c15ULL : s;
}

std::string jobs_trace_conflict(std::int64_t jobs, bool trace_requested) {
  if (!trace_requested || jobs <= 1) return "";
  return "--trace-out writes a single ordered trace stream and requires a "
         "serial sweep; drop --jobs=" +
         std::to_string(jobs) + " or the trace";
}

// ---------------------------------------------------------------------------
// Cache key + bit-exact result serialization
// ---------------------------------------------------------------------------

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Serializes every WorkloadConfig field (describe() omits several).
std::string workload_fingerprint(const WorkloadConfig& c) {
  std::ostringstream os;
  os.precision(17);
  os << "mode=" << static_cast<int>(c.mode)
     << ";prim=" << static_cast<int>(c.prim) << ";threads=" << c.threads
     << ";work=" << c.work << ";jitter=" << c.work_jitter
     << ";zlines=" << c.zipf_lines << ";zs=" << c.zipf_s
     << ";wf=" << c.write_fraction << ";shards=" << c.shards
     << ";lpt=" << c.lines_per_thread << ";seed=" << c.seed
     << ";pin=" << static_cast<int>(c.pin_order);
  return os.str();
}

// Doubles are cached as their IEEE-754 bit patterns (16 hex digits): the
// JSON number path would round-trip through double-formatted text and the
// parser's double storage, which is only exact up to 2^53 — not enough for
// byte-identical warm-cache reports.
void kv_bits(JsonWriter& w, std::string_view key, double v) {
  w.kv(key, hex64(std::bit_cast<std::uint64_t>(v)));
}

void kv_u64_array(JsonWriter& w, std::string_view key, const std::uint64_t* v,
                  std::size_t n) {
  w.key(key).begin_array();
  for (std::size_t i = 0; i < n; ++i) w.value(v[i]);
  w.end_array();
}

std::uint64_t get_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type() != JsonValue::Type::kNumber) {
    throw std::runtime_error("sweep cache: missing field");
  }
  return static_cast<std::uint64_t>(v->as_number());
}

double get_bits(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type() != JsonValue::Type::kString) {
    throw std::runtime_error("sweep cache: missing bits field");
  }
  const std::uint64_t bits =
      std::strtoull(v->as_string().c_str(), nullptr, 16);
  return std::bit_cast<double>(bits);
}

bool get_bool(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type() != JsonValue::Type::kBool) {
    throw std::runtime_error("sweep cache: missing bool field");
  }
  return v->as_bool();
}

template <std::size_t N>
void fill_u64_array(const JsonValue& obj, std::string_view key,
                    std::array<std::uint64_t, N>& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type() != JsonValue::Type::kArray || v->size() != N) {
    throw std::runtime_error("sweep cache: bad array field");
  }
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint64_t>(v->at(i)->as_number());
  }
}

const JsonValue& require_array(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type() != JsonValue::Type::kArray) {
    throw std::runtime_error("sweep cache: missing array");
  }
  return *v;
}

}  // namespace

std::string sweep_cache_key(const std::string& backend_identity,
                            const WorkloadConfig& config, std::uint64_t seed) {
  if (backend_identity.empty()) return "";
  const std::string material = std::string(kSweepCacheVersion) + "|" +
                               backend_identity + "|" +
                               workload_fingerprint(config) + "|" +
                               std::to_string(seed);
  // An identity key: cryptographic, so neither chance nor a crafted
  // workload makes two points share a cache file.
  return sha256_hex(material, 16);
}

std::string sweep_cache_path(const std::string& cache_dir,
                             const std::string& key) {
  return cache_dir + "/" + key + ".json";
}

std::string serialize_measured_run(const MeasuredRun& r,
                                   const std::string& key) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("v", kSweepCacheVersion);
  w.kv("key", key);
  w.kv("backend", r.backend);
  w.kv("machine", r.machine);
  kv_bits(w, "duration_cycles", r.duration_cycles);
  kv_bits(w, "freq_ghz", r.freq_ghz);
  w.key("threads").begin_array();
  for (const auto& t : r.threads) {
    w.begin_object();
    w.kv("ops", t.ops);
    w.kv("successes", t.successes);
    w.kv("failures", t.failures);
    w.kv("attempts", t.attempts);
    kv_bits(w, "mean_latency", t.mean_latency_cycles);
    kv_bits(w, "p99_latency", t.p99_latency_cycles);
    w.kv("tail_valid", t.latency_tail_valid);
    kv_u64_array(w, "ops_by_prim", t.ops_by_prim.data(), t.ops_by_prim.size());
    kv_u64_array(w, "successes_by_prim", t.successes_by_prim.data(),
                 t.successes_by_prim.size());
    w.end_object();
  }
  w.end_array();
  kv_u64_array(w, "transfers", r.transfers.data(), r.transfers.size());
  w.kv("invalidations", r.invalidations);
  w.kv("memory_fetches", r.memory_fetches);
  w.kv("evictions", r.evictions);
  w.key("hot_lines").begin_array();
  for (const auto& h : r.hot_lines) {
    w.begin_object();
    w.kv("line", h.line);
    w.kv("accesses", h.accesses);
    w.kv("acquisitions", h.acquisitions);
    w.kv("invalidations", h.invalidations);
    kv_bits(w, "mean_queue_depth", h.mean_queue_depth);
    w.kv("max_queue_depth", h.max_queue_depth);
    kv_bits(w, "mean_hold_cycles", h.mean_hold_cycles);
    kv_u64_array(w, "supply", h.supply.data(), h.supply.size());
    w.end_object();
  }
  w.end_array();
  kv_bits(w, "epoch_cycles", r.epoch_cycles);
  w.key("epochs").begin_array();
  for (const auto& e : r.epochs) {
    w.begin_object();
    kv_bits(w, "start_cycle", e.start_cycle);
    w.kv("ops", e.ops);
    w.kv("attempts", e.attempts);
    kv_bits(w, "throughput", e.throughput_ops_per_kcycle);
    kv_bits(w, "wait_fraction", e.wait_fraction);
    w.kv("outstanding_max", e.outstanding_max);
    w.end_object();
  }
  w.end_array();
  w.kv("energy_valid", r.energy_valid);
  kv_bits(w, "energy_package_j", r.energy_package_j);
  kv_bits(w, "energy_dram_j", r.energy_dram_j);
  w.kv("perf_valid", r.perf_valid);
  w.kv("perf_cycles", r.perf_cycles);
  w.kv("perf_instructions", r.perf_instructions);
  w.end_object();
  os << "\n";
  return os.str();
}

std::optional<MeasuredRun> parse_measured_run(const std::string& text,
                                              const std::string& key) {
  const auto doc = JsonValue::parse(text);
  if (!doc.has_value()) return std::nullopt;
  try {
    const JsonValue* v = doc->find("v");
    const JsonValue* k = doc->find("key");
    if (v == nullptr || v->as_string() != kSweepCacheVersion ||
        k == nullptr || k->as_string() != key) {
      return std::nullopt;
    }
    MeasuredRun r;
    r.backend = doc->find("backend")->as_string();
    r.machine = doc->find("machine")->as_string();
    r.duration_cycles = get_bits(*doc, "duration_cycles");
    r.freq_ghz = get_bits(*doc, "freq_ghz");
    for (const JsonValue& jt : require_array(*doc, "threads").items()) {
      ThreadResult t;
      t.ops = get_u64(jt, "ops");
      t.successes = get_u64(jt, "successes");
      t.failures = get_u64(jt, "failures");
      t.attempts = get_u64(jt, "attempts");
      t.mean_latency_cycles = get_bits(jt, "mean_latency");
      t.p99_latency_cycles = get_bits(jt, "p99_latency");
      t.latency_tail_valid = get_bool(jt, "tail_valid");
      fill_u64_array(jt, "ops_by_prim", t.ops_by_prim);
      fill_u64_array(jt, "successes_by_prim", t.successes_by_prim);
      r.threads.push_back(t);
    }
    fill_u64_array(*doc, "transfers", r.transfers);
    r.invalidations = get_u64(*doc, "invalidations");
    r.memory_fetches = get_u64(*doc, "memory_fetches");
    r.evictions = get_u64(*doc, "evictions");
    for (const JsonValue& jh : require_array(*doc, "hot_lines").items()) {
      LineHotness h;
      h.line = get_u64(jh, "line");
      h.accesses = get_u64(jh, "accesses");
      h.acquisitions = get_u64(jh, "acquisitions");
      h.invalidations = get_u64(jh, "invalidations");
      h.mean_queue_depth = get_bits(jh, "mean_queue_depth");
      h.max_queue_depth = get_u64(jh, "max_queue_depth");
      h.mean_hold_cycles = get_bits(jh, "mean_hold_cycles");
      fill_u64_array(jh, "supply", h.supply);
      r.hot_lines.push_back(h);
    }
    r.epoch_cycles = get_bits(*doc, "epoch_cycles");
    for (const JsonValue& je : require_array(*doc, "epochs").items()) {
      EpochPoint e;
      e.start_cycle = get_bits(je, "start_cycle");
      e.ops = get_u64(je, "ops");
      e.attempts = get_u64(je, "attempts");
      e.throughput_ops_per_kcycle = get_bits(je, "throughput");
      e.wait_fraction = get_bits(je, "wait_fraction");
      e.outstanding_max = get_u64(je, "outstanding_max");
      r.epochs.push_back(e);
    }
    r.energy_valid = get_bool(*doc, "energy_valid");
    r.energy_package_j = get_bits(*doc, "energy_package_j");
    r.energy_dram_j = get_bits(*doc, "energy_dram_j");
    r.perf_valid = get_bool(*doc, "perf_valid");
    r.perf_cycles = get_u64(*doc, "perf_cycles");
    r.perf_instructions = get_u64(*doc, "perf_instructions");
    return r;
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt/stale file: treat as a cache miss
  }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

const char* to_string(PointStatus s) noexcept {
  switch (s) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kTimeout: return "timeout";
    case PointStatus::kSimError: return "sim_error";
    case PointStatus::kCancelled: return "cancelled";
    case PointStatus::kSkipped: return "skipped";
  }
  return "unknown";
}

namespace {

/// Process-wide: set from the SIGINT handler, so it must stay a lone
/// lock-free atomic store away from any engine state.
std::atomic<bool> g_cancel{false};

// The am_sweep_* point families. The registry interns each (name, labels)
// pair once; a lookup per point is noise beside running or reading one.
void count_finished(const PointRun& run) {
  if (!obs::metrics::enabled()) return;
  obs::metrics::Registry& reg = obs::metrics::default_registry();
  reg.counter("am_sweep_points_total", "Sweep points finished, by outcome",
              {{"status", to_string(run.status)}})
      .inc();
  if (run.status != PointStatus::kOk) return;
  reg.counter("am_sweep_point_results_total",
              "Successful sweep-point results, by source",
              {{"source", run.from_cache ? "cache" : "executed"}})
      .inc();
}

/// Runs @p body as one started point: maps what it throws onto @p out's
/// status (a failed point keeps no recorded runs) and counts the point.
template <class Body>
void run_counted(PointRun& out, Body&& body) {
  if (obs::metrics::enabled()) {
    obs::metrics::default_registry()
        .counter("am_sweep_points_started_total",
                 "Sweep points picked up by a worker")
        .inc();
  }
  try {
    body();
  } catch (const sim::PointTimeout& e) {
    out.status = PointStatus::kTimeout;
    out.message = e.what();
  } catch (const std::exception& e) {
    out.status = PointStatus::kSimError;
    out.message = e.what();
  } catch (...) {
    out.status = PointStatus::kSimError;
    out.message = "unknown error";
  }
  if (out.status != PointStatus::kOk) out.log.clear();
  count_finished(out);
}

}  // namespace

PointRun run_sweep_point(const BackendFactory& factory,
                         const WorkloadConfig& config, std::uint64_t seed,
                         const std::string& cache_dir) {
  PointRun out;
  run_counted(out, [&] {
    std::unique_ptr<ExecutionBackend> backend = factory(seed);
    backend->set_run_recorder(&out.log);

    std::string key;
    if (!cache_dir.empty()) {
      key = sweep_cache_key(backend->cache_identity(), config, seed);
    }
    std::string cache_path;
    if (!key.empty()) {
      cache_path = sweep_cache_path(cache_dir, key);
      std::string bytes;
      switch (sweep::read_file_with_retry(cache_path, bytes)) {
        case sweep::IoResult::kOk:
          if (auto cached = parse_measured_run(bytes, key)) {
            out.result = std::move(*cached);
            out.from_cache = true;
            out.log.push_back(RecordedRun{config, out.result});
            return;
          }
          // Corrupt bytes or a stale/colliding key: quarantine the file
          // for postmortem and recompute — never trust it again.
          sweep::quarantine_file(cache_dir, cache_path);
          out.quarantined = true;
          break;
        case sweep::IoResult::kMissing:
          break;
        case sweep::IoResult::kError:
          // Degrade: run uncached rather than fail the point.
          ++out.io_errors;
          cache_path.clear();
          break;
      }
    }

    out.result = backend->run(config);
    if (!cache_path.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(cache_dir, ec);
      // A lost cache write only costs a future recompute — degrade and
      // count it instead of failing the point (or staying silent).
      if (sweep::write_file_atomic(cache_path,
                                   serialize_measured_run(out.result, key)) !=
          sweep::IoResult::kOk) {
        ++out.io_errors;
      }
    }
  });
  return out;
}

void SweepEngine::request_cancel() noexcept {
  g_cancel.store(true, std::memory_order_relaxed);
}
bool SweepEngine::cancel_requested() noexcept {
  return g_cancel.load(std::memory_order_relaxed);
}
void SweepEngine::clear_cancel() noexcept {
  g_cancel.store(false, std::memory_order_relaxed);
}

struct SweepEngine::Point {
  bool is_task = false;
  WorkloadConfig config;
  Task task;
  std::uint64_t seed = 0;
  std::size_t index = 0;

  PointRun run;             ///< set under Impl::mu when the point finishes
  bool has_result = false;  ///< a finished ok workload point
};

struct SweepEngine::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  ///< workers: new work or shutdown
  std::condition_variable done_cv;  ///< drain(): a point completed
  std::vector<std::unique_ptr<Point>> points;
  std::size_t next = 0;       ///< next point to hand to a worker
  std::size_t completed = 0;  ///< points finished (ok or failed)
  std::size_t flushed = 0;    ///< points merged into the global run log
  std::size_t executed = 0;   ///< cache misses + tasks actually run
  std::size_t cache_hits = 0;
  std::size_t quarantined = 0;
  std::uint64_t cache_io_errors = 0;
  bool io_warning_emitted = false;
  bool stop = false;
  std::vector<std::thread> workers;
};

SweepEngine::SweepEngine(BackendFactory factory, SweepOptions options)
    : factory_(std::move(factory)),
      options_(std::move(options)),
      jobs_(options_.jobs != 0
                ? options_.jobs
                : std::max(1u, std::thread::hardware_concurrency())),
      impl_(std::make_unique<Impl>()) {}

SweepEngine::~SweepEngine() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
}

std::size_t SweepEngine::submit(const WorkloadConfig& config) {
  auto p = std::make_unique<Point>();
  p->config = config;
  return enqueue(std::move(p));
}

std::size_t SweepEngine::submit_task(Task task) {
  auto p = std::make_unique<Point>();
  p->is_task = true;
  p->task = std::move(task);
  return enqueue(std::move(p));
}

std::size_t SweepEngine::enqueue(std::unique_ptr<Point> p) {
  std::size_t index;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    index = impl_->points.size();
    p->index = index;
    p->seed = point_seed(options_.base_seed, index);
    impl_->points.push_back(std::move(p));
    // Lazy pool start: an engine that is never used costs no threads.
    if (impl_->workers.size() < jobs_ &&
        impl_->workers.size() < impl_->points.size()) {
      impl_->workers.emplace_back([this] { worker_loop(); });
    }
  }
  impl_->work_cv.notify_one();
  return index;
}

void SweepEngine::worker_loop() {
  for (;;) {
    Point* point = nullptr;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->work_cv.wait(lock, [this] {
        return impl_->stop || impl_->next < impl_->points.size();
      });
      if (impl_->next >= impl_->points.size()) {
        if (impl_->stop) return;
        continue;
      }
      point = impl_->points[impl_->next++].get();
    }
    PointRun run = execute_point(*point);
    {
      const std::lock_guard<std::mutex> lock(impl_->mu);
      ++impl_->completed;
      impl_->cache_io_errors += run.io_errors;
      if (run.quarantined) ++impl_->quarantined;
      if (run.status == PointStatus::kOk) {
        if (run.from_cache) {
          ++impl_->cache_hits;
        } else {
          ++impl_->executed;
        }
        point->has_result = !point->is_task;
      }
      point->run = std::move(run);
    }
    impl_->done_cv.notify_all();
  }
}

PointRun SweepEngine::execute_point(const Point& p) {
  const bool replaying = options_.replay_point >= 0;
  PointRun out;
  if (cancel_requested()) {
    // In-flight points finish; this one never started, so it is cleanly
    // cancellable without losing work.
    out.status = PointStatus::kCancelled;
    out.message = "cancelled before execution (SIGINT)";
  } else if (replaying &&
             p.index != static_cast<std::size_t>(options_.replay_point)) {
    out.status = PointStatus::kSkipped;
    out.message = "skipped (--replay-point=" +
                  std::to_string(options_.replay_point) + ")";
  } else if (p.is_task) {
    run_counted(out, [&] { p.task(p.seed, out.log); });
    return out;
  } else {
    // Replay bypasses the cache entirely: the point must re-execute.
    return run_sweep_point(factory_, p.config, p.seed,
                           replaying ? std::string() : options_.cache_dir);
  }
  count_finished(out);
  return out;
}

void SweepEngine::drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(
      lock, [this] { return impl_->completed == impl_->points.size(); });
  while (impl_->flushed < impl_->points.size()) {
    Point& p = *impl_->points[impl_->flushed];
    ++impl_->flushed;
    if (p.run.status != PointStatus::kOk) continue;  // failed: flush nothing
    for (auto& rec : p.run.log) {
      append_run_log(std::move(rec));
    }
    p.run.log.clear();
  }
  if (impl_->cache_io_errors > 0 && !impl_->io_warning_emitted) {
    impl_->io_warning_emitted = true;
    std::fprintf(stderr,
                 "warning: sweep: %llu cache I/O error(s); affected points "
                 "ran uncached (results are unaffected)\n",
                 static_cast<unsigned long long>(impl_->cache_io_errors));
  }
}

const MeasuredRun& SweepEngine::result(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (index < impl_->points.size() && impl_->points[index]->has_result) {
    return impl_->points[index]->run.result;
  }
  std::string why = "not drained or a task";
  if (index < impl_->points.size()) {
    const Point& p = *impl_->points[index];
    if (p.run.status != PointStatus::kOk) {
      why = std::string(to_string(p.run.status)) + ": " + p.run.message +
            "; replay: rerun with --jobs=1 --replay-point=" +
            std::to_string(index);
    }
  }
  throw std::logic_error("SweepEngine::result: point " +
                         std::to_string(index) + " has no measurement (" +
                         why + ")");
}

const MeasuredRun* SweepEngine::result_or_null(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (index >= impl_->points.size() || !impl_->points[index]->has_result) {
    return nullptr;
  }
  return &impl_->points[index]->run.result;
}

PointOutcome SweepEngine::outcome(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  PointOutcome out;
  if (index >= impl_->points.size()) {
    out.status = PointStatus::kSimError;
    out.message = "no such point";
    return out;
  }
  const Point& p = *impl_->points[index];
  out.status = p.run.status;
  out.message = p.run.message;
  out.seed = p.seed;
  return out;
}

std::vector<FailedPoint> SweepEngine::failed_points() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<FailedPoint> out;
  for (const auto& pp : impl_->points) {
    const Point& p = *pp;
    if (p.run.status == PointStatus::kOk ||
        p.run.status == PointStatus::kSkipped) {
      continue;
    }
    FailedPoint f;
    f.index = p.index;
    f.status = p.run.status;
    f.message = p.run.message;
    f.seed = p.seed;
    f.is_task = p.is_task;
    f.config = p.config;
    out.push_back(std::move(f));
  }
  return out;
}

std::size_t SweepEngine::submitted_points() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->points.size();
}

std::size_t SweepEngine::ok_points() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->executed + impl_->cache_hits;
}

std::size_t SweepEngine::executed_points() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->executed;
}

std::size_t SweepEngine::cache_hits() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->cache_hits;
}

std::uint64_t SweepEngine::cache_io_errors() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->cache_io_errors;
}

std::size_t SweepEngine::quarantined_files() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->quarantined;
}

}  // namespace am::bench
