// am_fleet: the supervised multi-worker serving tier.
//
// Spawns N am_serve workers on per-worker Unix sockets, keeps them alive
// (deadline health probes, exponential-backoff restart, circuit breaker)
// and fronts them with a consistent-hash router speaking the same
// am-serve/1 protocol on the --listen endpoint. Requests route by canonical
// form so each worker's LRU stays hot on its shard; when a shard's owner is
// down the request hands off to a ring successor, and when nothing is up it
// is served stale from the router's LRU, answered from the shared
// --sweep-cache disk tier (simulate: an entry read, or the point computed
// at the front and published), or answered with a structured `unavailable`
// error.
//
//   am_fleet --workers=4 --listen=127.0.0.1:7789 --sweep-cache=results/cache
//   am_fleet --workers=4 --chaos-kill-every-ms=2000   # self-inflicted chaos
//
// SIGTERM/SIGINT drain the front server, then the whole fleet: workers get
// SIGTERM, finish in-flight requests and exit; final stats print to stdout.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "fleet/chaos.hpp"
#include "fleet/router.hpp"
#include "fleet/supervisor.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"

namespace {

extern "C" void on_signal(int) { am::service::Server::request_shutdown(); }

}  // namespace

int main(int argc, char** argv) {
  using am::CliParser;
  CliParser cli(
      "am_fleet supervisor: N am_serve workers behind a consistent-hash "
      "router with health-checked restart, failover, stale serving and a "
      "shared disk tier");
  cli.add_flag("workers", "worker process count", "4", CliParser::FlagKind::kInt);
  cli.add_flag("listen", "front endpoint (host:port; port 0 = ephemeral)",
               "127.0.0.1:7789", CliParser::FlagKind::kEndpoint);
  cli.add_flag("listen-unix", "also listen on this Unix-domain socket path",
               "");
  cli.add_flag("service-threads", "front router thread pool width", "8",
               CliParser::FlagKind::kInt);
  cli.add_flag("worker-binary",
               "am_serve executable (default: $AM_SERVE_BIN, then next to "
               "am_fleet)",
               "");
  cli.add_flag("worker-threads", "service threads per worker", "2",
               CliParser::FlagKind::kInt);
  cli.add_flag("runtime-dir",
               "directory for per-worker unix sockets (default: a fresh "
               "/tmp/am_fleet.* dir)",
               "");
  cli.add_flag("sweep-cache",
               "shared second-level disk cache dir (--sweep-cache format; "
               "workers fill it, and the router reads or fills it when every "
               "candidate worker is down)",
               "");
  cli.add_flag("max-point-cycles",
               "per-worker simulate watchdog budget (0 = auto, negative = "
               "off)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("health-interval-ms", "probe/restart tick period", "250",
               CliParser::FlagKind::kInt);
  cli.add_flag("probe-timeout-ms", "ping deadline per health probe", "1000",
               CliParser::FlagKind::kInt);
  cli.add_flag("restart-backoff-ms",
               "initial restart backoff (doubles per consecutive failure)",
               "200", CliParser::FlagKind::kInt);
  cli.add_flag("circuit-failures",
               "consecutive failed spawns before the circuit opens", "5",
               CliParser::FlagKind::kInt);
  cli.add_flag("circuit-cooloff-ms",
               "restart pause once the circuit is open", "10000",
               CliParser::FlagKind::kInt);
  cli.add_flag("failover-retries",
               "ring successors tried after the owner before degrading",
               "1", CliParser::FlagKind::kInt);
  cli.add_flag("request-timeout-ms", "deadline per forwarded request",
               "30000", CliParser::FlagKind::kInt);
  cli.add_flag("stale-capacity",
               "router stale-response LRU entries (0 disables)", "4096",
               CliParser::FlagKind::kInt);
  cli.add_flag("chaos-kill-every-ms",
               "chaos driver: SIGKILL a random worker this often (0 = off)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("chaos-hang-every-ms",
               "chaos driver: SIGSTOP a random worker this often (0 = off)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("metrics",
               "rolling-window sampler and simulator/sweep counter "
               "publication (the front's own books and the scrape stay on)",
               "true", CliParser::FlagKind::kBool);
  if (!cli.parse(argc, argv)) return 2;

  const bool metrics_on = cli.get_bool("metrics");
  am::obs::metrics::set_enabled(metrics_on);

  static am::fleet::ChaosConfig chaos;
  chaos.kill_every_ms.store(
      static_cast<int>(cli.get_int("chaos-kill-every-ms")));
  chaos.hang_every_ms.store(
      static_cast<int>(cli.get_int("chaos-hang-every-ms")));

  am::fleet::FleetConfig fleet_config;
  fleet_config.workers = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("workers")));
  fleet_config.worker_binary = cli.get("worker-binary");
  fleet_config.sweep_cache_dir = cli.get("sweep-cache");
  fleet_config.worker_threads = static_cast<unsigned>(
      std::max<std::int64_t>(1, cli.get_int("worker-threads")));
  fleet_config.health_interval_ms =
      static_cast<int>(std::max<std::int64_t>(10, cli.get_int("health-interval-ms")));
  fleet_config.probe_timeout_ms =
      static_cast<int>(std::max<std::int64_t>(10, cli.get_int("probe-timeout-ms")));
  fleet_config.restart_backoff_ms =
      static_cast<int>(std::max<std::int64_t>(1, cli.get_int("restart-backoff-ms")));
  fleet_config.circuit_failures =
      static_cast<int>(std::max<std::int64_t>(1, cli.get_int("circuit-failures")));
  fleet_config.circuit_cooloff_ms =
      static_cast<int>(std::max<std::int64_t>(1, cli.get_int("circuit-cooloff-ms")));
  fleet_config.chaos = &chaos;
  fleet_config.max_point_cycles = cli.get_int("max-point-cycles");

  std::string runtime_dir = cli.get("runtime-dir");
  if (runtime_dir.empty()) {
    char tmpl[] = "/tmp/am_fleet.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::cerr << "am_fleet: cannot create runtime dir under /tmp\n";
      return 1;
    }
    runtime_dir = tmpl;
  } else {
    ::mkdir(runtime_dir.c_str(), 0755);  // best-effort; bind reports failure
  }
  fleet_config.runtime_dir = runtime_dir;

  am::fleet::Supervisor supervisor(std::move(fleet_config));
  std::string error;
  if (!supervisor.start(&error)) {
    std::cerr << "am_fleet: " << error << "\n";
    return 1;
  }
  if (!supervisor.wait_all_up(supervisor.config().start_grace_ms)) {
    std::cerr << "am_fleet: warning: not all workers came up within "
              << supervisor.config().start_grace_ms
              << "ms; serving degraded\n";
  }

  am::fleet::RouterConfig router_config;
  router_config.request_timeout_ms =
      static_cast<int>(std::max<std::int64_t>(1, cli.get_int("request-timeout-ms")));
  router_config.failover_retries =
      static_cast<int>(std::max<std::int64_t>(0, cli.get_int("failover-retries")));
  router_config.stale_capacity = static_cast<std::size_t>(
      std::max<std::int64_t>(0, cli.get_int("stale-capacity")));
  am::fleet::Router router(supervisor, router_config);

  am::service::ServerConfig server_config;
  const auto tcp = am::service::parse_endpoint(cli.get("listen"), &error);
  if (!tcp.has_value()) {
    std::cerr << "am_fleet: --listen: " << error << "\n";
    return 2;
  }
  server_config.listen.push_back(*tcp);
  if (!cli.get("listen-unix").empty()) {
    am::service::Endpoint unix_ep;
    unix_ep.kind = am::service::Endpoint::Kind::kUnix;
    unix_ep.path = cli.get("listen-unix");
    server_config.listen.push_back(unix_ep);
  }
  server_config.service_threads = static_cast<unsigned>(
      std::max<std::int64_t>(1, cli.get_int("service-threads")));
  server_config.metrics = metrics_on;

  am::service::Server server(router, server_config);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!server.start(&error)) {
    std::cerr << "am_fleet: " << error << "\n";
    return 1;
  }
  for (const am::service::Endpoint& ep : server.bound_endpoints()) {
    std::cout << "am_fleet listening on " << ep.to_string() << " ("
              << supervisor.worker_count() << " workers, runtime "
              << runtime_dir << ")\n";
  }
  std::cout.flush();

  server.wait();
  // The drain already cascaded through Router::on_drain(); this is the
  // idempotent backstop for error paths.
  supervisor.drain();

  std::cout << server.stats_json() << "\n";
  return 0;
}
