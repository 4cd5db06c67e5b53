// SweepEngine: bounded-parallel execution of a bench binary's parameter grid.
//
// Every bench sweeps a (workload x thread-count x machine) grid in which each
// simulated point builds a fresh sim::Machine — the points are embarrassingly
// parallel, and on the paper's grids serial execution is the dominant
// wall-clock cost. The engine runs submitted points on a bounded host thread
// pool and merges their results back into the process-wide run log in
// *submission* order, so tables, am-run-report/1 JSON and plots are
// byte-identical regardless of --jobs.
//
// Determinism contract:
//  * Point i runs on an independent backend seeded with
//    point_seed(base_seed, i) (a splitmix64-style hash), so any point is
//    replayable in isolation: build the same backend with that seed, run the
//    same workload, get the same MeasuredRun.
//  * Results surface in submission order (drain() + result(i)), never in
//    completion order.
//  * With a result cache attached (SweepOptions::cache_dir), already-computed
//    points are loaded from disk bit-exactly (doubles round-trip through
//    their bit patterns), so warm-cache reruns emit byte-identical reports
//    while simulating nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_core/backend.hpp"
#include "bench_core/sweep_journal.hpp"

namespace am::bench {

/// Bump when simulator/backend semantics change in a way that invalidates
/// cached sweep results; the cache key includes it.
inline constexpr const char* kSweepCacheVersion = "am-sweep-cache/1";

/// splitmix64 finalizer — the statistically strong 64-bit mix used to derive
/// independent per-point seeds from (base_seed, point_index).
std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Seed of sweep point @p index under @p base_seed. Never returns 0 (some
/// PRNGs degenerate on an all-zero state). The service runs a simulate
/// request as point 0 under the request's seed.
std::uint64_t point_seed(std::uint64_t base_seed, std::uint64_t index) noexcept;

/// Validates the --jobs / --trace-out combination. A Chrome trace is one
/// ordered event stream, so a sweep that traces must run serially; an
/// explicit request for parallelism alongside a trace is a user error, not
/// something to silently downgrade. Returns an error message, or "" when
/// the combination is fine (@p jobs <= 1, or no trace requested).
std::string jobs_trace_conflict(std::int64_t jobs, bool trace_requested);

// --- per-point outcomes ------------------------------------------------------

/// Terminal state of one sweep point. A failed point never aborts the sweep:
/// it surfaces as a degraded table row and a failed_points report entry while
/// every other point completes normally.
enum class PointStatus : std::uint8_t {
  kOk,          ///< measured (or served from cache/journal)
  kTimeout,     ///< sim::PointTimeout — watchdog budget or livelock
  kSimError,    ///< simulator/backend/task threw
  kCacheError,  ///< cache I/O failure escalated (IoFaults::escalate_read)
  kCancelled,   ///< cancel requested (SIGINT) before the point started
  kSkipped,     ///< not this point (replay mode runs exactly one index)
};

const char* to_string(PointStatus s) noexcept;

/// Everything known about how one point ended.
struct PointOutcome {
  PointStatus status = PointStatus::kOk;
  std::string message;  ///< one-line failure description; empty when ok
  std::uint64_t seed = 0;
  bool from_cache = false;
  bool from_journal = false;
};

/// Report-facing record of a point that did not produce a measurement.
struct FailedPoint {
  std::size_t index = 0;
  PointStatus status = PointStatus::kSimError;
  std::string message;
  std::uint64_t seed = 0;
  bool is_task = false;
  WorkloadConfig config;  ///< meaningful only when !is_task
};

/// Builds the backend for one point from its seed; must be thread-safe (the
/// usual factory just calls make_backend(spec, seed)).
using BackendFactory =
    std::function<std::unique_ptr<ExecutionBackend>(std::uint64_t seed)>;

/// Everything one point produced.
struct PointRun {
  PointStatus status = PointStatus::kOk;
  std::string message;  ///< one-line failure description; empty when ok
  MeasuredRun result;   ///< the measurement; meaningful when ok
  /// The point's recorded runs (a reuse-tier hit records one too); empty
  /// unless ok. SweepEngine flushes them into the run log at drain().
  std::vector<RecordedRun> log;
  bool from_cache = false;
  bool from_journal = false;
  std::uint64_t io_errors = 0;  ///< cache/journal I/O failures survived
  bool quarantined = false;     ///< a bad cache file was moved aside
};

/// The one body of a sweep point, run by SweepEngine's pool workers and
/// inline by the service's simulate. Serves the point from @p journal (null
/// or unopened = none) or the disk result cache @p cache_dir ("" = none),
/// quarantining a corrupt or mismatched cache file; otherwise runs it on
/// factory(@p seed) and publishes the result to both (a lost write is
/// counted, not fatal). Maps what the run throws to a PointStatus, never
/// throws, never writes the process-wide run log, and counts the point in
/// the am_sweep_* families.
PointRun run_sweep_point(const BackendFactory& factory,
                         const WorkloadConfig& config, std::uint64_t seed,
                         const std::string& cache_dir,
                         sweep::SweepJournal* journal);

struct SweepOptions {
  /// Pool width. 0 = hardware_concurrency, 1 = serial (same seeds/results).
  unsigned jobs = 0;
  /// On-disk result cache directory; empty disables caching. Created on
  /// first use.
  std::string cache_dir;
  /// Base seed for per-point seed derivation (--base-seed).
  std::uint64_t base_seed = 1;
  /// Crash-safe completed-point journal (--sweep-journal); empty disables.
  /// See sweep_journal.hpp — a rerun after SIGKILL/SIGINT skips journaled
  /// points even with the result cache disabled.
  std::string journal_path;
  /// When >= 0, run exactly this submission index (serially, bypassing cache
  /// and journal) and mark every other point kSkipped — the replay command
  /// printed for failed points (--replay-point).
  std::int64_t replay_point = -1;
};

class SweepEngine {
 public:
  using BackendFactory = bench::BackendFactory;

  /// A free-form unit of pooled work (multi-run procedures like model
  /// calibration). The task creates its own backend, attaches @p log as its
  /// run recorder, and runs; the engine merges @p log into the global run
  /// log in submission order at drain().
  using Task =
      std::function<void(std::uint64_t seed, std::vector<RecordedRun>& log)>;

  explicit SweepEngine(BackendFactory factory, SweepOptions options = {});
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Enqueues one workload point; returns its index (also its seed index).
  std::size_t submit(const WorkloadConfig& config);
  /// Enqueues a free-form task (not cached); returns its index.
  std::size_t submit_task(Task task);

  /// Blocks until every submitted point has reached a terminal state, then
  /// flushes the recorded runs of the ok points into the process-wide run
  /// log in submission order. Never rethrows point failures — inspect
  /// outcome()/failed_points(). Emits a once-per-sweep stderr warning when
  /// cache/journal I/O errors degraded the sweep. More points may be
  /// submitted afterwards.
  void drain();

  /// Measurement of workload point @p index; valid after drain(). Throws
  /// std::logic_error for a failed point — the message carries the outcome
  /// and a --jobs=1 --replay-point=N replay hint. Prefer result_or_null()
  /// when degraded rows are acceptable.
  const MeasuredRun& result(std::size_t index) const;
  /// Like result(), but nullptr instead of throwing for failed/task points.
  const MeasuredRun* result_or_null(std::size_t index) const;
  /// How point @p index ended; valid after drain().
  PointOutcome outcome(std::size_t index) const;
  /// Every point that reached a non-ok, non-skipped terminal state, in
  /// submission order.
  std::vector<FailedPoint> failed_points() const;

  /// Points submitted so far.
  std::size_t submitted_points() const;
  /// Points that reached PointStatus::kOk so far.
  std::size_t ok_points() const;
  /// Points actually executed (cache misses + tasks) so far.
  std::size_t executed_points() const;
  /// Points served from the result cache so far.
  std::size_t cache_hits() const;
  /// Points served from the crash-recovery journal so far.
  std::size_t journal_hits() const;
  /// Cache/journal I/O failures survived so far (the sweep degraded to
  /// uncached/unjournaled execution instead of failing).
  std::uint64_t cache_io_errors() const;
  /// Corrupt or key-mismatched cache files moved to <cache_dir>/quarantine/.
  std::size_t quarantined_files() const;

  /// Process-wide cooperative cancel, async-signal-safe: a SIGINT handler
  /// calls request_cancel(); workers finish in-flight points, mark unstarted
  /// ones kCancelled, and drain() returns with partial results.
  static void request_cancel() noexcept;
  static bool cancel_requested() noexcept;
  static void clear_cancel() noexcept;  ///< test isolation
  /// Effective pool width.
  unsigned jobs() const noexcept { return jobs_; }
  std::uint64_t base_seed() const noexcept { return options_.base_seed; }

 private:
  struct Point;
  struct Impl;

  std::size_t enqueue(std::unique_ptr<Point> p);
  void worker_loop();
  PointRun execute_point(const Point& p);

  BackendFactory factory_;
  SweepOptions options_;
  unsigned jobs_;
  std::unique_ptr<Impl> impl_;
};

// --- cache plumbing (exposed for tests and disk-tier readers) ---------------

/// The file holding @p key's entry in the disk result cache @p cache_dir.
std::string sweep_cache_path(const std::string& cache_dir,
                             const std::string& key);

/// Stable cache key for one point: sha256_hex(material, 16), 32 hex digits,
/// where the material is cache version, backend identity, workload and seed.
/// SHA-256 because the key is an identity key (see common/sha256.hpp): it
/// alone names the file a hit is served from. Empty when
/// @p backend_identity is empty (uncacheable).
std::string sweep_cache_key(const std::string& backend_identity,
                            const WorkloadConfig& config, std::uint64_t seed);

/// Serializes @p run bit-exactly (doubles as IEEE-754 bit patterns).
std::string serialize_measured_run(const MeasuredRun& run,
                                   const std::string& key);

/// Parses serialize_measured_run() output; rejects documents whose embedded
/// key differs from @p key (hash collision / stale file).
std::optional<MeasuredRun> parse_measured_run(const std::string& text,
                                              const std::string& key);

}  // namespace am::bench
