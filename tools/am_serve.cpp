// am_serve: the model-serving daemon.
//
// Exposes the calibrated bouncing model, the design advisor and bounded
// simulator runs over the am-serve/1 newline-delimited JSON protocol (see
// docs/service.md) on TCP and/or Unix-domain sockets. Requests are
// canonicalized and answered through a sharded LRU prediction cache;
// simulate results are additionally cached on disk in the sweep result
// cache format, so a daemon and batch sweeps can share a cache directory.
//
//   am_serve --listen=127.0.0.1:7787 --service-threads=8
//   am_serve --listen=0.0.0.0:0 --listen-unix=/tmp/am.sock
//            --sweep-cache=results/cache
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
// requests, print final stats to stdout, exit 0.

#include <algorithm>
#include <csignal>
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/handlers.hpp"
#include "service/server.hpp"

namespace {

extern "C" void on_signal(int) { am::service::Server::request_shutdown(); }

}  // namespace

int main(int argc, char** argv) {
  using am::CliParser;
  CliParser cli(
      "am-serve/1 daemon: model predictions, design advice, calibration and "
      "bounded simulator runs over newline-delimited JSON");
  cli.add_flag("listen", "TCP endpoint to listen on (host:port; port 0 = ephemeral)",
               "127.0.0.1:7787", CliParser::FlagKind::kEndpoint);
  cli.add_flag("listen-unix", "also listen on this Unix-domain socket path",
               "");
  cli.add_flag("service-threads", "worker pool width", "4",
               CliParser::FlagKind::kInt);
  cli.add_flag("cache-capacity",
               "in-memory prediction cache entries (0 disables)", "4096",
               CliParser::FlagKind::kInt);
  cli.add_flag("cache-shards", "prediction cache shard count", "16",
               CliParser::FlagKind::kInt);
  cli.add_flag("sweep-cache",
               "on-disk result cache dir for simulate requests (shared "
               "format with the bench --sweep-cache)",
               "");
  cli.add_flag("max-point-cycles",
               "simulate watchdog budget in simulated cycles "
               "(0 = auto, negative = off)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("trace-out",
               "write per-request Chrome trace events to this file", "");
  cli.add_flag("verbose", "log one line per request to stderr", "false",
               CliParser::FlagKind::kBool);
  cli.add_flag("metrics",
               "live telemetry: rolling windows (qps_1s.., window families "
               "of the {\"kind\":\"metrics\"} scrape) and simulator/sweep/"
               "guest counter publication",
               "true", CliParser::FlagKind::kBool);
  cli.add_flag("slow-request-us",
               "log a structured stderr line for requests slower than this "
               "many microseconds (0 disables)",
               "0", CliParser::FlagKind::kInt);
  if (!cli.parse(argc, argv)) return 2;

  am::service::ServiceConfig core_config;
  core_config.cache_capacity =
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("cache-capacity")));
  core_config.cache_shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("cache-shards")));
  core_config.sim_cache_dir = cli.get("sweep-cache");
  core_config.max_point_cycles = cli.get_int("max-point-cycles");
  const bool metrics_on = cli.get_bool("metrics");
  core_config.metrics = metrics_on;
  // The global switch gates the simulator/sweep publication points too, so
  // --metrics=false is a true A/B: no fetch-adds anywhere on the hot path.
  am::obs::metrics::set_enabled(metrics_on);
  am::service::ServiceCore core(std::move(core_config));

  am::service::ServerConfig server_config;
  std::string error;
  const auto tcp = am::service::parse_endpoint(cli.get("listen"), &error);
  if (!tcp.has_value()) {
    std::cerr << "am_serve: --listen: " << error << "\n";
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
  server_config.slow_request_us =
      static_cast<double>(std::max<std::int64_t>(0, cli.get_int("slow-request-us")));

  // The sink is shared by concurrent workers and any simulate run they
  // dispatch, so whatever backs it gets the mutex wrapper.
  am::obs::TextTraceSink text_sink(std::cerr);
  std::unique_ptr<am::obs::ChromeTraceFileSink> chrome_sink;
  std::unique_ptr<am::obs::SynchronizedTraceSink> shared_sink;
  if (!cli.get("trace-out").empty()) {
    chrome_sink =
        std::make_unique<am::obs::ChromeTraceFileSink>(cli.get("trace-out"));
    if (!chrome_sink->ok()) {
      std::cerr << "am_serve: cannot open --trace-out file: "
                << cli.get("trace-out") << "\n";
      return 2;
    }
    shared_sink =
        std::make_unique<am::obs::SynchronizedTraceSink>(*chrome_sink);
  } else if (cli.get_bool("verbose")) {
    shared_sink = std::make_unique<am::obs::SynchronizedTraceSink>(text_sink);
  }
  if (shared_sink) server_config.trace = shared_sink.get();

  am::service::Server server(core, server_config);
  // Handlers are installed before start() so a drain signal arriving during
  // bind still lands on the self-pipe instead of killing the process.
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!server.start(&error)) {
    std::cerr << "am_serve: " << error << "\n";
    return 1;
  }
  for (const am::service::Endpoint& ep : server.bound_endpoints()) {
    std::cout << "am_serve listening on " << ep.to_string() << "\n";
  }
  std::cout.flush();

  server.wait();

  // Final stats flush — the drain contract's last step.
  std::cout << server.stats_json() << "\n";
  return 0;
}
