// Request execution for the am-serve daemon.
//
// ServiceCore is the transport-free heart of the service: it takes a parsed
// Request, consults the sharded LRU prediction cache, and computes misses
// with the repo's existing engines —
//   predict   -> model::BouncingModel closed forms,
//   advise    -> model::advise_counter / advise_lock /
//                recommended_backoff_cycles,
//                both over one model per preset, built with the core and
//                shared by every worker thread (hand-offs memoized per
//                thread count),
//   calibrate -> model::calibrate over a backend that replays the client's
//                probe samples (serving per-machine calibrated parameter
//                sets instead of recomputing them per query),
//   simulate  -> run_simulate: one bounded sim::Machine run through
//                bench::run_sweep_point (the body every sweep point runs),
//                inline on the worker that read the request, with the
//                watchdog armed and the on-disk sweep result cache
//                attached, so repeated deep queries are served from disk
//                exactly like sweep points.
// Results are serialized once and cached as bytes, which is what makes
// responses byte-identical across worker threads and cache temperature.
//
// The transport (Server) talks to handlers through the RequestHandler
// interface, so the same server can front either a ServiceCore (one worker
// process) or a fleet::Router (the supervisor's forwarding tier).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "bench_core/result.hpp"
#include "bench_core/workload.hpp"
#include "model/bouncing_model.hpp"
#include "obs/trace.hpp"
#include "service/lru_cache.hpp"
#include "service/protocol.hpp"

namespace am {
class JsonWriter;
}  // namespace am

namespace am::obs::metrics {
class PromWriter;
}  // namespace am::obs::metrics

namespace am::service {

/// Per-request observability context, minted by the transport when a worker
/// takes up a request line. Carried through the handlers so a simulate run's
/// protocol-level trace events land in the same sink (and on the same
/// timeline) as the server's own request span.
struct RequestContext {
  std::uint64_t req_id = 0;          ///< server-wide request sequence number
  obs::TraceSink* trace = nullptr;   ///< shared sink; must be thread-safe
};

struct HandleResult {
  std::string response;  ///< full response line, '\n'-terminated
  bool ok = true;        ///< envelope carried a result (not an error)
  bool cache_hit = false;
};

/// What the Server's worker threads call for every parsed request. @p raw
/// is the original request line exactly as received (no trailing '\n') —
/// a forwarding handler relays it verbatim so the answering worker
/// re-canonicalizes the same bytes and the response (id echo included)
/// stays byte-identical to a direct-served run.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  virtual HandleResult handle(const Request& r, std::string_view raw,
                              const RequestContext* ctx) = 0;

  /// Appends handler-specific sections ("cache", "fleet", ...) into the
  /// stats response object being built. Must be thread-safe: stats requests
  /// run on worker threads.
  virtual void append_stats(JsonWriter& w) const { (void)w; }

  /// The scrape twin of append_stats: renders the handler's own counters
  /// as Prometheus families (am_cache_*, am_fleet_*, ...) into the server's
  /// metrics response. Reads the same books append_stats does; must be
  /// thread-safe likewise.
  virtual void append_metrics(obs::metrics::PromWriter& w) const { (void)w; }

  /// Invoked once when the server enters drain (SIGTERM/SIGINT): a
  /// forwarding handler propagates drain to its workers here.
  virtual void on_drain() {}
};

struct ServiceConfig {
  /// Total in-memory prediction cache entries (0 disables).
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  /// On-disk result cache directory for simulate points (empty disables);
  /// shared format with --sweep-cache, so daemon and batch sweeps can share
  /// a cache directory.
  std::string sim_cache_dir;
  /// Per-simulation watchdog budget in simulated cycles: 0 = auto (64x the
  /// warmup+measure window), negative = watchdog off. Mirrors
  /// --max-point-cycles.
  std::int64_t max_point_cycles = 0;
  /// Publish the run_guest layer counters (am_guest_*) into
  /// obs::metrics::default_registry(). Off for overhead A/B runs.
  bool metrics = true;
  /// run_guest resource ceilings, service-side (the CLI runs with larger
  /// defaults): simulated-cycle window and total guest-instruction budget
  /// per request. A guest still running at either cap gets a coded
  /// guest_error response.
  std::uint64_t guest_max_cycles = 50'000'000;
  std::uint64_t guest_max_instructions = 20'000'000;
};

class ServiceCore final : public RequestHandler {
 public:
  explicit ServiceCore(ServiceConfig config);

  /// Executes @p r (any kind except kStats/kMetrics, which need server-wide
  /// state and are answered by the Server). Never throws: failures become
  /// error envelopes. @p ctx is optional observability context; it never
  /// affects response bytes (responses stay byte-identical with and without
  /// tracing attached).
  HandleResult handle(const Request& r, const RequestContext* ctx = nullptr);

  HandleResult handle(const Request& r, std::string_view raw,
                      const RequestContext* ctx) override {
    (void)raw;
    return handle(r, ctx);
  }

  /// Writes the "cache" stats section (hits/misses/size/...).
  void append_stats(JsonWriter& w) const override;

  /// Renders the am_cache_*_total families from cache().counters().
  void append_metrics(obs::metrics::PromWriter& w) const override;

  const ShardedLruCache& cache() const noexcept { return cache_; }
  const ServiceConfig& config() const noexcept { return config_; }

 private:
  std::string run_predict(const PointQuery& q, std::string* error);
  std::string run_advise(const AdviseQuery& q, std::string* error);
  std::string run_calibrate(const CalibrateQuery& q, std::string* error);
  /// On failure sets @p error_code to errcode::kGuestError and @p error to
  /// "<guest code>: <message>" — guest failures are coded so clients can
  /// tell a broken binary from an unhealthy service.
  std::string run_guest(const GuestQuery& q, std::string* error,
                        std::string* error_code, const RequestContext* ctx);

  ServiceConfig config_;
  ShardedLruCache cache_;
  /// One shared model per machine name the protocol accepts.
  std::map<std::string, model::BouncingModel> models_;
};

/// Answers one simulate request on the calling thread: bench::run_sweep_point
/// on a SimBackend seeded point_seed(q.seed, 0), under the watchdog of
/// @p max_point_cycles (as ServiceConfig), on the disk tier @p disk_dir
/// ("" = none), streaming protocol events to @p trace (nullable). Returns
/// the result object, or "" with @p error set. ServiceCore and the fleet
/// router's promotion both answer simulate through it.
std::string run_simulate(const PointQuery& q, const std::string& disk_dir,
                         std::int64_t max_point_cycles, obs::TraceSink* trace,
                         std::string* error);

/// The exact WorkloadConfig a simulate request runs (the workload half of
/// its disk-tier key).
bench::WorkloadConfig simulate_workload(const PointQuery& q);

/// Serializes a finished simulate run into the result-object JSON the
/// handler caches and returns, whether the run executed or came from disk.
std::string render_simulate_result(const PointQuery& q,
                                   const bench::MeasuredRun& run);

}  // namespace am::service
