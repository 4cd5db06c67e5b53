// The fleet's forwarding tier: a service::RequestHandler that relays each
// request to the worker owning its shard.
//
// Routing key = the request's cache key (service::request_cache_key, the
// SHA-256 of its canonical form), so every retry of a request — any member
// order, any whitespace — lands on the same worker and its sharded LRU
// stays hot.
// The original request line is forwarded verbatim: the worker parses,
// canonicalizes and answers exactly as if the client had connected to it
// directly, which is what keeps fleet responses byte-identical to a
// single-worker run (id echo included).
//
// Degradation ladder per request:
//   1. owner up                 -> forward
//   2. owner down or failed     -> bounded hand-off to ring successors
//   3. every candidate down     -> stale-while-revalidate: the last good
//                                  response from the router's LRU
//   4. LRU miss (simulate with  -> the disk tier at the front: the front
//      --sweep-cache)              answers with service::run_simulate, the
//                                  call a worker answers with, which serves
//                                  the shared disk entry when one exists
//                                  and otherwise computes the point and
//                                  publishes it for every recovering worker
//   5. anything else            -> structured `unavailable`
//
// The router's tallies are plain per-instance atomics; append_stats and
// append_metrics both read them (and the supervisor's), so the "fleet"
// stats section and the am_fleet_* scrape families are one set of books.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/ring.hpp"
#include "fleet/supervisor.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/lru_cache.hpp"

namespace am::fleet {

struct RouterConfig {
  /// Deadline for one forwarded request (connect + send + receive).
  int request_timeout_ms = 30000;
  /// Sibling workers tried after the owner before degrading (<= workers-1).
  int failover_retries = 1;
  /// Router-level stale-response LRU (full response lines keyed by
  /// request cache key + id). 0 disables memory-stale serving.
  std::size_t stale_capacity = 4096;
};

class Router final : public service::RequestHandler {
 public:
  Router(Supervisor& supervisor, RouterConfig config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  service::HandleResult handle(const service::Request& r,
                               std::string_view raw,
                               const service::RequestContext* ctx) override;

  /// Writes the "fleet" stats section: per-worker state plus routing
  /// counters.
  void append_stats(JsonWriter& w) const override;

  /// Renders every am_fleet_* family: the routing counters here plus the
  /// supervisor's lifecycle counters and workers-up gauge.
  void append_metrics(obs::metrics::PromWriter& w) const override;

  /// Propagates the front server's drain to the worker fleet.
  void on_drain() override;

  const HashRing& ring() const noexcept { return ring_; }

  // --- counters (tests) ----------------------------------------------------
  std::uint64_t forwarded() const noexcept { return forwarded_.load(); }
  std::uint64_t failovers() const noexcept { return failovers_.load(); }
  std::uint64_t stale_serves() const noexcept { return stale_serves_.load(); }
  std::uint64_t unavailable() const noexcept { return unavailable_.load(); }
  std::uint64_t promoted() const noexcept { return promoted_.load(); }

 private:
  struct PooledConn {
    service::ServiceClient client;
    std::uint64_t epoch = 0;  ///< worker epoch the connection was minted under
  };
  struct WorkerPool {
    std::mutex mu;
    std::vector<PooledConn> idle;
  };

  /// One forward attempt. Returns the response line (no '\n') or nullopt on
  /// transport failure (connect/send/recv/timeout).
  std::optional<std::string> forward(std::size_t worker, std::string_view raw);

  /// The disk tier at the front, for simulate when every candidate is down:
  /// service::run_simulate on the fleet's shared --sweep-cache under the
  /// workers' --max-point-cycles. A point a worker already published is
  /// read back; any other is computed and published (write-fsync-rename)
  /// so recovering workers get a warm hit. Empty response when the request
  /// is not a simulate or the fleet has no disk tier.
  service::HandleResult promote(const service::Request& r);

  Supervisor& supervisor_;
  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<WorkerPool>> pools_;
  service::ShardedLruCache stale_;

  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> stale_serves_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> promoted_{0};
};

}  // namespace am::fleet
