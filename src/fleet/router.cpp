#include "fleet/router.hpp"

#include <sstream>

#include "common/json.hpp"
#include "obs/prometheus.hpp"

namespace am::fleet {

namespace {

/// Stale-LRU key. The cached value is a *full response line*, which embeds
/// the request id echo — two clients asking the same canonical question
/// under different ids must not be served each other's echo, so the id is
/// part of the key (the cache key is fixed-width hex, so no two (key, id)
/// pairs join to the same string).
std::string stale_key(const std::string& cache_key, const std::string& id) {
  return cache_key + '\x1f' + id;
}

constexpr std::size_t kStaleShards = 8;  // of the stale-response LRU
constexpr std::size_t kRingVnodes = 64;  // per worker on the hash ring

}  // namespace

Router::Router(Supervisor& supervisor, RouterConfig config)
    : supervisor_(supervisor),
      config_(std::move(config)),
      ring_(supervisor.worker_count(), kRingVnodes),
      stale_(config_.stale_capacity, kStaleShards) {
  pools_.reserve(supervisor.worker_count());
  for (std::size_t i = 0; i < supervisor.worker_count(); ++i) {
    pools_.push_back(std::make_unique<WorkerPool>());
  }
}

Router::~Router() = default;

void Router::on_drain() { supervisor_.drain(); }

std::optional<std::string> Router::forward(std::size_t worker,
                                           std::string_view raw) {
  WorkerPool& pool = *pools_[worker];
  const std::uint64_t epoch = supervisor_.epoch(worker);

  PooledConn conn;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      if (pool.idle.empty()) break;
      conn = std::move(pool.idle.back());
      pool.idle.pop_back();
    }
    // A connection minted under an older epoch points at a dead process
    // (its socket at best answers with a hangup); discard, don't reuse.
    if (conn.epoch == epoch && conn.client.connected()) break;
    conn.client.close();
  }
  if (!conn.client.connected()) {
    conn.epoch = epoch;
    conn.client.set_timeout_ms(config_.request_timeout_ms);
    std::string error;
    if (!conn.client.connect(supervisor_.endpoint(worker), &error)) {
      return std::nullopt;
    }
  }

  std::string error;
  const auto response = conn.client.roundtrip(std::string(raw), &error);
  if (!response.has_value()) {
    conn.client.close();  // poisoned: mid-stream state is unrecoverable
    return std::nullopt;
  }

  {
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.idle.push_back(std::move(conn));
  }
  return response;
}

service::HandleResult Router::promote(const service::Request& r) {
  service::HandleResult out;
  if (r.kind != service::RequestKind::kSimulate) return out;
  const FleetConfig& fleet = supervisor_.config();
  if (fleet.sweep_cache_dir.empty()) return out;

  // run_simulate is what a worker answers with, under the workers' cycle
  // budget, so a promoted response (success or structured error) is
  // byte-identical to a worker-served one. Promotions run concurrently, as
  // a worker's own simulates do on the same directory: each writer
  // publishes through its own temp file and a rename, so a reader sees a
  // whole entry or none.
  std::string error;
  const std::string result = service::run_simulate(
      r.point, fleet.sweep_cache_dir, fleet.max_point_cycles, nullptr, &error);
  out.ok = error.empty();
  out.response = out.ok ? service::make_result_response(r, result)
                        : service::make_error_response(r.id, error);
  return out;
}

service::HandleResult Router::handle(const service::Request& r,
                                     std::string_view raw,
                                     const service::RequestContext* ctx) {
  (void)ctx;
  service::HandleResult out;
  if (r.kind == service::RequestKind::kPing) {
    // Answered at the front: liveness of the fleet entrypoint, not of any
    // worker. Bytes match a worker's own pong exactly.
    out.response = service::make_result_response(r, "{\"pong\":true}");
    return out;
  }
  if (r.kind == service::RequestKind::kStats ||
      r.kind == service::RequestKind::kMetrics) {
    // The front Server answers these itself; reaching here means a caller
    // wired the Router without one.
    out.response = service::make_error_response(
        r.id, "kind not handled by fleet router");
    out.ok = false;
    return out;
  }

  const std::string key = service::request_cache_key(r);
  const std::string memo_key = stale_key(key, r.id);
  const std::vector<std::size_t> order = ring_.route_order(key);
  const std::size_t candidates = std::min(
      order.size(), static_cast<std::size_t>(1 + std::max(0, config_.failover_retries)));

  for (std::size_t c = 0; c < candidates; ++c) {
    const std::size_t worker = order[c];
    if (supervisor_.state(worker) != WorkerState::kUp) continue;

    const auto response = forward(worker, raw);
    if (!response.has_value()) {
      supervisor_.report_transport_failure();
      continue;
    }
    if (c > 0) failovers_.fetch_add(1, std::memory_order_relaxed);
    forwarded_.fetch_add(1, std::memory_order_relaxed);

    out.response = *response + "\n";
    // Success envelopes always carry the literal `"ok":true`; escaping
    // guarantees no error envelope can contain those exact bytes.
    out.ok = response->find("\"ok\":true") != std::string::npos;
    if (r.cacheable() && out.ok && config_.stale_capacity > 0) {
      stale_.put(memo_key, out.response);
    }
    return out;
  }

  // No candidate answered. The router's own copy beats the disk tier, and
  // the disk tier (an entry read, or a point computed and published) beats
  // an error.
  if (r.cacheable()) {
    if (auto stale = stale_.get(memo_key)) {
      stale_serves_.fetch_add(1, std::memory_order_relaxed);
      out.response = std::move(*stale);
      out.cache_hit = true;
      return out;
    }
  }
  service::HandleResult promoted = promote(r);
  if (!promoted.response.empty()) {
    promoted_.fetch_add(1, std::memory_order_relaxed);
    if (r.cacheable() && promoted.ok && config_.stale_capacity > 0) {
      stale_.put(memo_key, promoted.response);
    }
    return promoted;
  }
  unavailable_.fetch_add(1, std::memory_order_relaxed);
  out.response = service::make_error_response(
      r.id, service::errcode::kUnavailable,
      "no worker available for this shard and no stale copy exists");
  out.ok = false;
  return out;
}

void Router::append_stats(JsonWriter& w) const {
  const auto status = supervisor_.status();
  w.key("fleet").begin_object();
  w.kv("workers", std::uint64_t{status.size()});
  w.kv("workers_up", std::uint64_t{supervisor_.workers_up()});
  w.kv("restarts", supervisor_.total_restarts());
  w.kv("forwarded", forwarded_.load(std::memory_order_relaxed));
  w.kv("failovers", failovers_.load(std::memory_order_relaxed));
  w.kv("stale_serves", stale_serves_.load(std::memory_order_relaxed));
  w.kv("unavailable", unavailable_.load(std::memory_order_relaxed));
  w.kv("promoted", promoted_.load(std::memory_order_relaxed));
  w.key("per_worker").begin_array();
  for (const auto& s : status) {
    w.begin_object();
    w.kv("state", to_string(s.state));
    w.kv("pid", static_cast<std::int64_t>(s.pid));
    w.kv("restarts", s.restarts);
    w.kv("epoch", s.epoch);
    w.kv("consecutive_failures",
         static_cast<std::int64_t>(s.consecutive_failures));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void Router::append_metrics(obs::metrics::PromWriter& w) const {
  constexpr auto kCounter = obs::metrics::Type::kCounter;
  w.single("am_fleet_forwarded_total", "Requests forwarded to a worker",
           kCounter, forwarded());
  w.single("am_fleet_failovers_total",
           "Forwards handed off to a ring successor (owner down or failed)",
           kCounter, failovers());
  w.single("am_fleet_stale_serves_total",
           "Requests served stale from the router LRU", kCounter,
           stale_serves());
  w.single("am_fleet_unavailable_total",
           "Requests answered `unavailable` (no worker, no stale copy)",
           kCounter, unavailable());
  w.single("am_fleet_promoted_total",
           "Simulate requests answered at the front from the shared sweep "
           "disk cache, read or computed and published (every candidate "
           "down)",
           kCounter, promoted());
  w.single("am_fleet_restarts_total", "Worker respawns after a crash or hang",
           kCounter, supervisor_.total_restarts());
  w.single("am_fleet_worker_deaths_total",
           "Worker processes that exited or were killed", kCounter,
           supervisor_.deaths());
  w.single("am_fleet_chaos_kills_total", "Chaos-injected worker SIGKILLs",
           kCounter, supervisor_.chaos_kills());
  w.single("am_fleet_chaos_hangs_total", "Chaos-injected worker SIGSTOP hangs",
           kCounter, supervisor_.chaos_hangs());
  w.single("am_fleet_probe_failures_total",
           "Health probes that missed the deadline (worker hung or dead)",
           kCounter, supervisor_.probe_failures());
  w.single("am_fleet_circuit_opens_total", "Circuit-breaker activations",
           kCounter, supervisor_.circuit_opens());
  w.single("am_fleet_workers_up", "Workers currently answering probes",
           obs::metrics::Type::kGauge,
           static_cast<double>(supervisor_.workers_up()));
}

}  // namespace am::fleet
