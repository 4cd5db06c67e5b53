// am_top: live terminal dashboard for an am_serve daemon.
//
// Polls {"kind":"metrics"} on an interval, parses the Prometheus text the
// daemon returns, and renders the rates the rolling windows expose: request
// throughput, latency quantiles, cache efficiency, and what the embedded
// simulator is doing. am_top is a pure Prometheus *consumer* — everything it
// shows is derivable from a scrape, so any external scraper sees the same
// numbers.
//
//   am_top --connect=127.0.0.1:7787
//   am_top --interval-ms=500 --iterations=10   # bounded run (CI/tests)

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"

namespace {

using am::obs::metrics::PromSample;
using am::obs::metrics::find_sample;

double value_or_zero(const std::vector<PromSample>& samples,
                     std::string_view name,
                     const std::map<std::string, std::string>& labels = {}) {
  return find_sample(samples, name, labels).value_or(0.0);
}

void render(const std::vector<PromSample>& s, const std::string& endpoint) {
  const double uptime = value_or_zero(s, "am_server_uptime_seconds");
  std::printf("am_top — %s   uptime %.0fs   conns %.0f   threads: see stats\n",
              endpoint.c_str(), uptime,
              value_or_zero(s, "am_server_active_connections"));
  std::printf("\n  %-10s %10s %14s %14s %14s\n", "window", "qps", "p50 us",
              "p90 us", "p99 us");
  for (const char* win : {"1s", "10s", "60s"}) {
    std::printf("  %-10s %10.1f %14.1f %14.1f %14.1f\n", win,
                value_or_zero(s, "am_qps", {{"window", win}}),
                value_or_zero(s, "am_request_latency_window_us",
                              {{"window", win}, {"quantile", "0.5"}}),
                value_or_zero(s, "am_request_latency_window_us",
                              {{"window", win}, {"quantile", "0.9"}}),
                value_or_zero(s, "am_request_latency_window_us",
                              {{"window", win}, {"quantile", "0.99"}}));
  }

  std::printf("\n  requests   ");
  for (const char* kind :
       {"predict", "advise", "calibrate", "simulate", "stats", "ping",
        "metrics", "run_guest"}) {
    const double n =
        value_or_zero(s, "am_server_requests_total", {{"kind", kind}});
    if (n > 0.0) std::printf("%s=%.0f  ", kind, n);
  }
  std::printf("\n  errors     parse=%.0f handler=%.0f slow=%.0f\n",
              value_or_zero(s, "am_server_parse_errors_total"),
              value_or_zero(s, "am_server_handler_errors_total"),
              value_or_zero(s, "am_server_slow_requests_total"));

  const double hits = value_or_zero(s, "am_cache_hits_total");
  const double misses = value_or_zero(s, "am_cache_misses_total");
  std::printf("\n  cache      hits=%.0f misses=%.0f evict=%.0f   "
              "hit-ratio 1s=%.2f 10s=%.2f 60s=%.2f\n",
              hits, misses, value_or_zero(s, "am_cache_evictions_total"),
              value_or_zero(s, "am_cache_hit_ratio", {{"window", "1s"}}),
              value_or_zero(s, "am_cache_hit_ratio", {{"window", "10s"}}),
              value_or_zero(s, "am_cache_hit_ratio", {{"window", "60s"}}));

  const double sim_ops = value_or_zero(s, "am_sim_ops_total");
  const double transitions = value_or_zero(s, "am_sim_mesi_transitions_total");
  std::printf("  simulator  runs=%.0f ops=%.0f grants=%.0f   "
              "cycles/s 10s=%.3g   MESI transitions/kop=%.1f\n",
              value_or_zero(s, "am_sim_runs_total"), sim_ops,
              value_or_zero(s, "am_sim_directory_grants_total"),
              value_or_zero(s, "am_sim_cycles_per_second",
                            {{"window", "10s"}}),
              sim_ops > 0.0 ? 1000.0 * transitions / sim_ops : 0.0);
  std::printf("  sweep      started=%.0f ok=%.0f timeout=%.0f\n",
              value_or_zero(s, "am_sweep_points_started_total"),
              value_or_zero(s, "am_sweep_points_total", {{"status", "ok"}}),
              value_or_zero(s, "am_sweep_points_total",
                            {{"status", "timeout"}}));

  // Guest panel: present once the daemon has executed a run_guest request
  // (the counters register on first execution, not at startup).
  if (find_sample(s, "am_guest_runs_total").has_value()) {
    const double guest_runs = value_or_zero(s, "am_guest_runs_total");
    const double guest_instret =
        value_or_zero(s, "am_guest_instructions_total");
    std::printf("  guest      runs=%.0f errors=%.0f instret=%.3g "
                "cycles=%.3g   instret/run=%.3g\n",
                guest_runs, value_or_zero(s, "am_guest_errors_total"),
                guest_instret, value_or_zero(s, "am_guest_cycles_total"),
                guest_runs > 0.0 ? guest_instret / guest_runs : 0.0);
  }

  // Fleet panel: present only when scraping an am_fleet front (the
  // workers-up gauge is registered by the supervisor, not am_serve).
  if (find_sample(s, "am_fleet_workers_up").has_value()) {
    std::printf("\n  fleet      up=%.0f restarts=%.0f deaths=%.0f "
                "probe-fail=%.0f circuit-opens=%.0f\n",
                value_or_zero(s, "am_fleet_workers_up"),
                value_or_zero(s, "am_fleet_restarts_total"),
                value_or_zero(s, "am_fleet_worker_deaths_total"),
                value_or_zero(s, "am_fleet_probe_failures_total"),
                value_or_zero(s, "am_fleet_circuit_opens_total"));
    std::printf("  routing    forwarded=%.0f failover=%.0f stale=%.0f "
                "promoted=%.0f unavailable=%.0f\n",
                value_or_zero(s, "am_fleet_forwarded_total"),
                value_or_zero(s, "am_fleet_failovers_total"),
                value_or_zero(s, "am_fleet_stale_serves_total"),
                value_or_zero(s, "am_fleet_promoted_total"),
                value_or_zero(s, "am_fleet_unavailable_total"));
    const double kills = value_or_zero(s, "am_fleet_chaos_kills_total");
    const double hangs = value_or_zero(s, "am_fleet_chaos_hangs_total");
    if (kills + hangs > 0.0) {
      std::printf("  chaos      kills=%.0f hangs=%.0f\n", kills, hangs);
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using am::CliParser;
  CliParser cli("terminal dashboard over am_serve's Prometheus metrics");
  cli.add_flag("connect", "daemon endpoint (host:port or unix:path)",
               "127.0.0.1:7787", CliParser::FlagKind::kEndpoint);
  cli.add_flag("interval-ms", "poll interval", "1000",
               CliParser::FlagKind::kInt);
  cli.add_flag("iterations", "frames to render before exiting (0 = forever)",
               "0", CliParser::FlagKind::kInt);
  if (!cli.parse(argc, argv)) return 2;

  std::string error;
  const auto endpoint = am::service::parse_endpoint(cli.get("connect"), &error);
  if (!endpoint.has_value()) {
    std::cerr << "am_top: --connect: " << error << "\n";
    return 2;
  }
  const std::int64_t interval_ms =
      std::max<std::int64_t>(50, cli.get_int("interval-ms"));
  const std::int64_t iterations = cli.get_int("iterations");
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  am::service::ServiceClient client;
  if (!client.connect(*endpoint, &error)) {
    std::cerr << "am_top: " << error << "\n";
    return 1;
  }

  const std::string scrape = "{\"v\":\"am-serve/1\",\"kind\":\"metrics\"}";
  for (std::int64_t frame = 0; iterations == 0 || frame < iterations;
       ++frame) {
    const auto response = client.roundtrip(scrape, &error);
    if (!response.has_value()) {
      std::cerr << "am_top: " << error << "\n";
      return 1;
    }
    const auto doc = am::JsonValue::parse(*response);
    const am::JsonValue* ok = doc.has_value() ? doc->find("ok") : nullptr;
    const am::JsonValue* result = doc.has_value() ? doc->find("result") : nullptr;
    const am::JsonValue* text =
        result != nullptr ? result->find("text") : nullptr;
    if (ok == nullptr || !ok->as_bool() || text == nullptr) {
      std::cerr << "am_top: daemon answered without metrics (old daemon or "
                   "--metrics=false?): "
                << *response << "\n";
      return 1;
    }
    const auto samples =
        am::obs::metrics::parse_prometheus_text(text->as_string());
    if (tty) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    render(samples, cli.get("connect"));
    if (iterations != 0 && frame + 1 >= iterations) break;
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  return 0;
}
