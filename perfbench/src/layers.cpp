// Tracing plumbing and numeric helpers shared by the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  correct = false;
  ++failed;
  if (problems.size() < 8) problems.push_back(why);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double pct(const std::vector<double>& sample, double q) {
  return sample.empty() ? 0.0 : am::percentile(sample, q);
}

double median(const std::vector<double>& sample) { return pct(sample, 50.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void set_latency_metrics(Report& rep, const std::vector<Completion>& done,
                         std::uint64_t completed, double elapsed_s,
                         double setup_s, double rss_mb) {
  constexpr double kWindowS = 1.0;
  // Full windows only; a run shorter than one window is one window.
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(elapsed_s / kWindowS)));
  const double width = windows == 1 ? elapsed_s : kWindowS;
  std::vector<std::vector<double>> by_window(windows);
  std::vector<std::pair<double, double>> span(windows, {1e300, -1e300});
  std::uint64_t in_windows = 0;
  for (const Completion& c : done) {
    const auto w = static_cast<std::size_t>(c.t_s / width);
    if (w < windows) {
      by_window[w].push_back(c.ms);
      span[w].first = std::min(span[w].first, static_cast<double>(c.t_s));
      span[w].second = std::max(span[w].second, static_cast<double>(c.t_s));
      ++in_windows;
    }
  }
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t n = by_window[w].size();
    if (n < 2) continue;
    // Completions per second between the window's first and last one.
    const double t = span[w].second - span[w].first;
    if (t > 0.0) rate.push_back(static_cast<double>(n - 1) / t);
    p50.push_back(pct(by_window[w], 50.0));
    p99.push_back(pct(by_window[w], 99.0));
  }
  // Samples are capped; when the cap cut the windows short, fall back to
  // the whole-run rate.
  const bool capped = in_windows + done.size() / 10 < completed && windows > 1;
  rep.set("setup_s", setup_s, "s");
  rep.set("ops_per_s",
          capped || rate.empty()
              ? static_cast<double>(completed) / std::max(elapsed_s, 1e-9)
              : median(rate),
          "1/s");
  rep.set("latency_p50_ms", median(p50), "ms");
  rep.set("latency_p99_ms", median(p99), "ms");
  rep.set("latency_samples", static_cast<double>(done.size()), "count");
  rep.set("latency_windows", static_cast<double>(p50.size()), "count");
  rep.set("peak_rss_mb", rss_mb, "MB");
}

// --- SpanRecorder ------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t cap) : epoch_(Clock::now()), cap_(cap) {}

std::int64_t SpanRecorder::add(std::string name, std::uint64_t req_id,
                               Clock::time_point start, Clock::time_point end,
                               std::int64_t parent, std::uint32_t track) {
  Span s;
  s.name = std::move(name);
  s.req_id = req_id;
  s.start_us = micros_between(epoch_, start);
  s.end_us = micros_between(epoch_, end);
  s.parent = parent;
  s.track = track;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= cap_) return -1;
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::self_time_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] += (s.end_us - s.start_us) - covered;
  }
  return out;
}

double SpanRecorder::root_time_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_us - s.start_us;
  }
  return total;
}

bool SpanRecorder::write_perfetto(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  am::JsonWriter w(out);
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.name.substr(0, s.name.find('.')));
    w.kv("ph", "X");
    w.kv("ts", s.start_us);
    w.kv("dur", s.end_us - s.start_us);
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{s.track});
    w.key("args").begin_object();
    w.kv("req_id", s.req_id);
    w.kv("span", std::uint64_t{i});
    w.kv("parent", std::int64_t{s.parent});
    w.end_object();
    w.end_object();
  }
  w.end_array();
  out << "\n";
  return static_cast<bool>(out);
}

std::uint32_t thread_track() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

// --- SimCounters ---------------------------------------------------------------

SimCounters SimCounters::read() {
  // Looking the counters up by name registers them on first use with the
  // simulator's own help strings; either way the values are the simulator's.
  auto& reg = am::obs::metrics::default_registry();
  SimCounters c;
  c.runs = reg.counter("am_sim_runs_total",
                       "Machine::run calls completed (incl. watchdog)")
               .value();
  c.cycles = reg.counter("am_sim_cycles_total",
                         "Simulated cycles elapsed across all runs")
                 .value();
  c.ops = reg.counter("am_sim_ops_total",
                      "Atomic operations retired by the simulator")
              .value();
  c.grants = reg.counter("am_sim_directory_grants_total",
                         "Directory line-slot grants served")
                 .value();
  c.mesi_transitions = reg.counter("am_sim_mesi_transitions_total",
                                   "MESI line-state transitions applied")
                           .value();
  c.invalidations =
      reg.counter("am_sim_invalidations_total", "Cache-line copies invalidated")
          .value();
  return c;
}

SimCounters SimCounters::minus(const SimCounters& b) const {
  SimCounters d;
  d.runs = runs - b.runs;
  d.cycles = cycles - b.cycles;
  d.ops = ops - b.ops;
  d.grants = grants - b.grants;
  d.mesi_transitions = mesi_transitions - b.mesi_transitions;
  d.invalidations = invalidations - b.invalidations;
  return d;
}

// --- TimedBackend --------------------------------------------------------------

TimedBackend::TimedBackend(std::unique_ptr<am::bench::ExecutionBackend> inner,
                           std::unique_ptr<CountingSink> sink,
                           std::vector<Sample>* samples, std::mutex* samples_mu)
    : sink_(std::move(sink)),
      inner_(std::move(inner)),
      samples_(samples),
      samples_mu_(samples_mu) {
  inner_->set_run_recorder(&inner_log_);
}

am::bench::MeasuredRun TimedBackend::do_run(
    const am::bench::WorkloadConfig& config) {
  const std::uint64_t events0 = sink_ != nullptr ? sink_->events() : 0;
  const auto t0 = Clock::now();
  am::bench::MeasuredRun run = inner_->run(config);
  const auto t1 = Clock::now();
  inner_log_.clear();
  Sample s;
  s.config = config;
  s.run_us = micros_between(t0, t1);
  s.ops = run.total_ops();
  s.events = sink_ != nullptr ? sink_->events() - events0 : 0;
  s.start = t0;
  s.end = t1;
  s.track = thread_track();
  std::lock_guard<std::mutex> lock(*samples_mu_);
  samples_->push_back(s);
  return run;
}

// --- TimedHandler --------------------------------------------------------------

am::service::HandleResult TimedHandler::handle(
    const am::service::Request& r, std::string_view raw,
    const am::service::RequestContext* ctx) {
  const auto t0 = Clock::now();
  am::service::HandleResult result = inner_.handle(r, raw, ctx);
  const auto t1 = Clock::now();
  Sample s;
  s.kind = r.kind;
  s.cache_hit = result.cache_hit;
  s.handle_us = micros_between(t0, t1);
  s.start = t0;
  s.end = t1;
  std::lock_guard<std::mutex> lock(mu_);
  by_id_[r.id] = s;
  return result;
}

bool TimedHandler::take(const std::string& id, Sample* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  *out = it->second;
  by_id_.erase(it);
  return true;
}

}  // namespace perfbench
