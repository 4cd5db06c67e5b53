// Shared plumbing of the repository benchmark (am_perfbench).
//
// The benchmark drives the libraries' public API from outside and changes no
// library code. Each workload is one process run; it reports
//   - end-to-end metrics (host time, memory, simulated throughput) from an
//     untraced timed phase, and
//   - per-layer metrics from a traced run: spans recorded around public calls
//     into each layer plus counter deltas from the metrics registry.
// Every metric a workload does not exercise is still printed (as 0), so all
// workloads emit the same names; BENCHMARK.json lists which ones are gated.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_core/backend.hpp"
#include "obs/trace.hpp"
#include "service/handlers.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bench_dir = "perfbench";   ///< golden data lives here
  std::string out_dir = ".bench_build";  ///< Perfetto traces are written here
};

/// What one workload run produced. Metrics are (value, unit) by name.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> problems;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a wrong or failed unit of work: it counts as failed and makes
  /// the run incorrect.
  void fail(const std::string& why);
};

Report run_sweep_cold(const Options& opt);
Report run_serve_hot(const Options& opt);
Report run_serve_cold(const Options& opt);

// --- small numeric helpers ---------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b);
double micros_between(Clock::time_point a, Clock::time_point b);
/// Linear-interpolated percentile (q in [0,100]); 0 for an empty sample.
double pct(const std::vector<double>& sample, double q);
double median(const std::vector<double>& sample);
/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();
/// splitmix64 finalizer over (a, b): the seed derivation used everywhere.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Sizes @p v for @p cap elements and touches that memory now, so that
/// filling it later does not raise the process's peak RSS: peak_rss_mb then
/// measures the program, not how many samples a faster program produced.
template <class T>
void preallocate(std::vector<T>& v, std::size_t cap) {
  v.resize(cap);
  v.clear();
}

/// One completed unit of work: when it completed (seconds since the timed
/// phase began) and how long it took.
struct Completion {
  float t_s = 0.0f;
  float ms = 0.0f;
};

/// Adds the end-to-end timing metrics shared by every workload. The timed
/// phase is cut into 1-second windows; ops_per_s, latency_p50_ms and
/// latency_p99_ms are the medians of the per-window values, so a burst of
/// interference from outside the process moves one window, not the result.
/// @p rss_mb is peak_rss_mb() read when the timed phase ended.
void set_latency_metrics(Report& rep, const std::vector<Completion>& done,
                         std::uint64_t completed, double elapsed_s,
                         double setup_s, double rss_mb);

// --- tracing -----------------------------------------------------------------

/// One span: a call into a layer, timed from outside. Spans of one request
/// share req_id; parent indexes the span that caused this one (-1 for none).
struct Span {
  std::string name;
  std::uint64_t req_id = 0;
  double start_us = 0.0;  ///< since the recorder's epoch
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint32_t track = 0;  ///< client connection / pool thread
};

/// Keeps spans in memory (thread-safe, capped) and writes them as Perfetto
/// (Chrome trace-event) JSON when the benchmark ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t cap = 400'000);

  /// Appends a span and returns its index (or -1 once the cap is reached).
  std::int64_t add(std::string name, std::uint64_t req_id,
                   Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = -1, std::uint32_t track = 0);
  /// Self time of every span (duration minus the union of its children),
  /// summed per name, in microseconds.
  std::map<std::string, double> self_time_us() const;
  /// Summed duration of the root spans (parent -1), in microseconds. The
  /// self times of all spans add up to it when every child span lies inside
  /// its parent and children of one parent do not overlap.
  double root_time_us() const;
  bool write_perfetto(const std::string& path) const;
  std::size_t size() const;

 private:
  Clock::time_point epoch_;
  std::size_t cap_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Counts simulator protocol events (the per-layer "work done" count of the
/// coherence machine). Single simulator thread per instance.
class CountingSink final : public am::obs::TraceSink {
 public:
  void on_event(const am::obs::TraceEvent& event) override {
    (void)event;
    ++events_;
  }
  std::uint64_t events() const noexcept { return events_; }

 private:
  std::uint64_t events_ = 0;
};

/// Small per-thread id (0, 1, 2, ... in first-use order), for span tracks.
std::uint32_t thread_track();

/// Snapshot of the simulator's process-wide am_sim_* counters; the
/// difference of two snapshots is the work a phase did.
struct SimCounters {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t ops = 0;
  std::uint64_t grants = 0;
  std::uint64_t mesi_transitions = 0;
  std::uint64_t invalidations = 0;

  static SimCounters read();
  SimCounters minus(const SimCounters& before) const;
};

/// ExecutionBackend decorator: forwards to an inner backend and times each
/// run (one sim::Machine build plus run) from outside.
class TimedBackend final : public am::bench::ExecutionBackend {
 public:
  struct Sample {
    am::bench::WorkloadConfig config;
    double run_us = 0.0;
    std::uint64_t ops = 0;     ///< measured-window ops of the run
    std::uint64_t events = 0;  ///< trace events counted (0 without a sink)
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t track = 0;   ///< small id of the pool thread
  };

  /// @p sink (optional) must already be attached to @p inner; it is kept
  /// alive as long as the backend and its per-run event count is recorded.
  TimedBackend(std::unique_ptr<am::bench::ExecutionBackend> inner,
               std::unique_ptr<CountingSink> sink,
               std::vector<Sample>* samples, std::mutex* samples_mu);

  std::string name() const override { return inner_->name(); }
  std::string machine_name() const override { return inner_->machine_name(); }
  std::uint32_t max_threads() const override { return inner_->max_threads(); }
  double freq_ghz() const override { return inner_->freq_ghz(); }
  std::string cache_identity() const override {
    return inner_->cache_identity();
  }

 private:
  am::bench::MeasuredRun do_run(const am::bench::WorkloadConfig& config) override;

  std::unique_ptr<CountingSink> sink_;  ///< outlives inner_, which uses it
  std::unique_ptr<am::bench::ExecutionBackend> inner_;
  std::vector<am::bench::RecordedRun> inner_log_;  ///< keeps the global log clean
  std::vector<Sample>* samples_;
  std::mutex* samples_mu_;
};

/// RequestHandler decorator: times ServiceCore::handle for every request and
/// remembers the span by request id, so the client's round trip can be split
/// into "inside the handler" and "outside it" (transport, poller, parse,
/// queueing, write).
class TimedHandler final : public am::service::RequestHandler {
 public:
  struct Sample {
    am::service::RequestKind kind = am::service::RequestKind::kPing;
    bool cache_hit = false;
    double handle_us = 0.0;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit TimedHandler(am::service::ServiceCore& inner) : inner_(inner) {}

  am::service::HandleResult handle(const am::service::Request& r,
                                   std::string_view raw,
                                   const am::service::RequestContext* ctx) override;
  void append_stats(am::JsonWriter& w) const override { inner_.append_stats(w); }
  void on_drain() override { inner_.on_drain(); }

  /// Removes and returns the sample recorded for request @p id, if any.
  bool take(const std::string& id, Sample* out);

 private:
  am::service::ServiceCore& inner_;
  std::mutex mu_;
  std::map<std::string, Sample> by_id_;
};

}  // namespace perfbench
