// S1 — am_serve under load: closed-loop saturation sweep and target-QPS
// pacing against the model-serving daemon.
//
// Each connection is one closed loop: send a request, wait for the
// response, send the next. A saturation sweep raises the connection count
// (default 1..64) and records achieved QPS and latency percentiles per
// step — the classic closed-system load curve, which flattens once the
// daemon's worker pool saturates. --target-qps switches to paced mode:
// connections space their requests to hit an aggregate offered rate, the
// latency distribution shows how far the daemon is from saturation.
//
// The request stream cycles through --distinct request shapes, so the
// daemon's prediction-cache hit rate is controllable (distinct=1 is a pure
// cache-hit storm; large distinct defeats the cache). With --verify every
// (request line -> response line) pair is recorded and cross-checked:
// identical requests must produce byte-identical responses regardless of
// which connection or worker served them — the serving determinism
// contract.
//
// By default the bench spawns an in-process daemon on an ephemeral port
// (self-contained, used by run_all_experiments.sh); --connect targets an
// external one.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fleet/router.hpp"
#include "fleet/supervisor.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/server.hpp"
#include "sim/config.hpp"

namespace {

using am::service::Endpoint;
using am::service::ServiceClient;

struct LoadResult {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t verify_failures = 0;
  double duration_s = 0.0;
  std::vector<double> latency_us;
  /// Completion time of each sample, seconds since the step started.
  /// Parallel to latency_us; feeds the per-step timeline buckets.
  std::vector<double> t_s;

  double qps() const {
    return duration_s > 0.0 ? static_cast<double>(requests) / duration_s : 0.0;
  }
};

/// One rolling bucket of a step's timeline: client-side view of throughput
/// and tail latency over time, the counterpart of the daemon's server-side
/// rolling windows.
struct TimelineBucket {
  double t_s = 0.0;  ///< bucket start, seconds since the step began
  double width_s = 0.0;
  std::uint64_t requests = 0;
  double qps = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Buckets a step's timestamped samples into fixed-width spans. Width adapts
/// to the step duration so short CI runs still get a few buckets.
std::vector<TimelineBucket> build_timeline(const LoadResult& r,
                                           double duration_s) {
  std::vector<TimelineBucket> timeline;
  if (r.latency_us.empty()) return timeline;
  const double width = std::clamp(duration_s / 8.0, 0.125, 1.0);
  std::vector<std::vector<double>> buckets;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    const auto b = static_cast<std::size_t>(std::max(0.0, r.t_s[i]) / width);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(r.latency_us[i]);
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) continue;
    const am::Summary s = am::summarize(buckets[b]);
    TimelineBucket out;
    out.t_s = static_cast<double>(b) * width;
    out.width_s = width;
    out.requests = buckets[b].size();
    out.qps = static_cast<double>(buckets[b].size()) / width;
    out.p50 = s.p50;
    out.p90 = s.p90;
    out.p99 = s.p99;
    timeline.push_back(out);
  }
  return timeline;
}

/// The request lines one connection cycles through. Distinct `work` values
/// make distinct canonical requests, so `distinct` directly sets the
/// daemon-side cache working set.
std::vector<std::string> build_requests(const am::CliParser& cli) {
  std::vector<std::string> lines;
  const std::int64_t distinct =
      std::max<std::int64_t>(1, cli.get_int("distinct"));
  for (std::int64_t i = 0; i < distinct; ++i) {
    std::ostringstream os;
    am::JsonWriter w(os);
    w.begin_object();
    w.kv("v", "am-serve/1");
    w.kv("kind", cli.get("request"));
    w.kv("machine", cli.get("machine"));
    w.kv("mode", "shared");
    w.kv("prim", cli.get("prim"));
    w.kv("threads", static_cast<std::uint64_t>(cli.get_int("threads")));
    w.kv("work", cli.get_double("work") + 10.0 * static_cast<double>(i));
    w.end_object();
    lines.push_back(os.str());
  }
  return lines;
}

/// Runs @p connections closed loops against @p endpoint until the deadline.
/// @p pace_interval_s > 0 spaces each connection's requests (target-QPS
/// mode); @p verify_map (optional) enforces byte-identical responses for
/// identical request lines across all connections. @p zipf (optional)
/// draws request indices Zipf-distributed instead of round-robin — the
/// skewed-popularity regime a consistent-hash fleet actually sees.
LoadResult run_load(const Endpoint& endpoint, unsigned connections,
                    double duration_s, double pace_interval_s,
                    const std::vector<std::string>& requests,
                    std::map<std::string, std::string>* verify_map,
                    std::mutex* verify_mu,
                    const am::ZipfSampler* zipf = nullptr) {
  std::vector<LoadResult> per_conn(connections);
  std::vector<std::thread> threads;
  std::atomic<bool> failed_connect{false};
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration<double>(std::max(0.01, duration_s));

  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& mine = per_conn[c];
      ServiceClient client;
      std::string error;
      if (!client.connect(endpoint, &error)) {
        failed_connect.store(true);
        return;
      }
      std::size_t i = c;  // offset start so connections interleave the set
      am::Xoshiro256 rng(0x51f1ee7ULL + c);
      auto next_slot = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() < deadline) {
        if (pace_interval_s > 0.0) {
          std::this_thread::sleep_until(next_slot);
          next_slot += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(pace_interval_s));
        }
        const std::string& line =
            zipf != nullptr ? requests[zipf->sample(rng)]
                            : requests[i++ % requests.size()];
        const auto r0 = std::chrono::steady_clock::now();
        const auto response = client.roundtrip(line, &error);
        if (!response.has_value()) {
          ++mine.errors;
          break;  // transport down; this loop is done
        }
        const auto r1 = std::chrono::steady_clock::now();
        mine.latency_us.push_back(
            std::chrono::duration<double, std::micro>(r1 - r0).count());
        mine.t_s.push_back(
            std::chrono::duration<double>(r1 - t0).count());
        ++mine.requests;
        if (response->find("\"ok\":true") == std::string::npos) ++mine.errors;
        if (verify_map != nullptr) {
          std::lock_guard<std::mutex> lock(*verify_mu);
          const auto [it, inserted] = verify_map->emplace(line, *response);
          if (!inserted && it->second != *response) ++mine.verify_failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult total;
  total.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const LoadResult& r : per_conn) {
    total.requests += r.requests;
    total.errors += r.errors;
    total.verify_failures += r.verify_failures;
    total.latency_us.insert(total.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
    total.t_s.insert(total.t_s.end(), r.t_s.begin(), r.t_s.end());
  }
  if (failed_connect.load()) ++total.errors;
  return total;
}

void emit_json_value(am::JsonWriter& w, const am::JsonValue& v) {
  using Type = am::JsonValue::Type;
  switch (v.type()) {
    case Type::kNull: w.null(); break;
    case Type::kBool: w.value(v.as_bool()); break;
    case Type::kNumber: w.value(v.as_number()); break;
    case Type::kString: w.value(v.as_string()); break;
    case Type::kArray:
      w.begin_array();
      for (const auto& item : v.items()) emit_json_value(w, item);
      w.end_array();
      break;
    case Type::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        emit_json_value(w, member);
      }
      w.end_object();
      break;
  }
}

struct Row {
  unsigned connections = 0;
  double target_qps = 0.0;  ///< 0 in saturation mode
  LoadResult result;
};

}  // namespace

int main(int argc, char** argv) {
  using am::CliParser;
  CliParser cli(
      "closed-loop load generator for am_serve: saturation sweep over "
      "connection counts, or paced target-QPS mode");
  cli.add_flag("connect",
               "external daemon endpoint (host:port or unix:path); empty "
               "spawns an in-process daemon on an ephemeral port",
               "", am::CliParser::FlagKind::kEndpoint);
  cli.add_flag("connections",
               "saturation sweep connection counts (comma-separated)",
               "1,2,4,8,16,32,64", CliParser::FlagKind::kIntList);
  cli.add_flag("duration-ms", "measurement window per sweep step", "1000",
               CliParser::FlagKind::kInt);
  cli.add_flag("target-qps",
               "paced mode: aggregate offered rate (0 = saturation sweep)",
               "0", CliParser::FlagKind::kDouble);
  cli.add_flag("request",
               "request kind to send: predict|advise|simulate|ping",
               "predict");
  cli.add_flag("machine", "sim preset named in requests", "xeon");
  cli.add_flag("prim", "primitive named in requests", "FAA");
  cli.add_flag("threads", "thread count named in requests", "16",
               CliParser::FlagKind::kInt);
  cli.add_flag("work", "base work value named in requests", "0",
               CliParser::FlagKind::kDouble);
  cli.add_flag("distinct",
               "distinct request shapes cycled through (cache working set)",
               "64", CliParser::FlagKind::kInt);
  cli.add_flag("verify",
               "record every request->response pair and fail on any "
               "non-byte-identical response to an identical request",
               "true", CliParser::FlagKind::kBool);
  cli.add_flag("key-zipf-s",
               "draw request keys Zipf(s)-distributed over the distinct set "
               "instead of round-robin (0 = round-robin)",
               "0", CliParser::FlagKind::kDouble);
  cli.add_flag("fleet-workers",
               "spawn an in-process am_fleet tier with this many am_serve "
               "workers instead of a single in-process daemon (0 = off; "
               "ignored with --connect)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("fleet-worker-threads", "service threads per fleet worker",
               "2", CliParser::FlagKind::kInt);
  cli.add_flag("service-threads",
               "worker pool width of the in-process daemon", "4",
               CliParser::FlagKind::kInt);
  cli.add_flag("cache-capacity",
               "prediction cache entries of the in-process daemon", "4096",
               CliParser::FlagKind::kInt);
  cli.add_flag("metrics",
               "telemetry in the in-process daemon; --metrics=false is the "
               "overhead A/B baseline (ignored with --connect)",
               "true", CliParser::FlagKind::kBool);
  cli.add_flag("csv", "write the table as CSV to this path (empty = skip)",
               "");
  cli.add_flag("json-out", "write an am-serve-load/1 JSON report here", "");
  if (!cli.parse(argc, argv)) return 2;
  if (std::ranges::find(am::sim::kPresetNames, cli.get("machine")) ==
      am::sim::kPresetNames.end()) {
    std::cerr << "bench_s1_service: unknown --machine=" << cli.get("machine")
              << " (want " << am::sim::preset_names(" | ") << ")\n";
    return 2;
  }
  // build_requests writes one line shape (machine, mode, prim, threads,
  // work); these are the kinds that line is a valid request of.
  constexpr std::array<std::string_view, 4> kRequestKinds = {
      "predict", "advise", "simulate", "ping"};
  if (std::ranges::find(kRequestKinds, cli.get("request")) ==
      kRequestKinds.end()) {
    std::cerr << "bench_s1_service: unknown --request=" << cli.get("request")
              << " (want predict | advise | simulate | ping)\n";
    return 2;
  }

  // Endpoint: external daemon, a self-hosted one on an ephemeral port, or
  // a self-hosted fleet tier (supervisor + router fronting N am_serve
  // worker processes).
  std::string error;
  Endpoint endpoint;
  std::unique_ptr<am::service::ServiceCore> core;
  std::unique_ptr<am::fleet::Supervisor> supervisor;
  std::unique_ptr<am::fleet::Router> router;
  std::unique_ptr<am::service::Server> server;  // after router: dies first
  const std::int64_t fleet_workers =
      std::max<std::int64_t>(0, cli.get_int("fleet-workers"));
  if (!cli.get("connect").empty()) {
    const auto parsed = am::service::parse_endpoint(cli.get("connect"), &error);
    if (!parsed.has_value()) {
      std::cerr << "bench_s1_service: --connect: " << error << "\n";
      return 2;
    }
    endpoint = *parsed;
  } else {
    const bool metrics_on = cli.get_bool("metrics");
    // Same contract as am_serve --metrics=false: the global switch also
    // gates simulator/sweep publication, so the A/B compares a truly
    // instrumentation-free hot path.
    am::obs::metrics::set_enabled(metrics_on);
    am::service::ServerConfig server_config;
    Endpoint ephemeral;
    ephemeral.host = "127.0.0.1";
    ephemeral.port = 0;
    server_config.listen.push_back(ephemeral);
    server_config.service_threads = static_cast<unsigned>(
        std::max<std::int64_t>(1, cli.get_int("service-threads")));
    server_config.metrics = metrics_on;

    if (fleet_workers > 0) {
      char runtime_tmpl[] = "/tmp/am_fleet_bench.XXXXXX";
      if (::mkdtemp(runtime_tmpl) == nullptr) {
        std::cerr << "bench_s1_service: cannot create fleet runtime dir\n";
        return 1;
      }
      am::fleet::FleetConfig fleet_config;
      fleet_config.workers = static_cast<std::size_t>(fleet_workers);
      fleet_config.runtime_dir = runtime_tmpl;
      fleet_config.worker_threads = static_cast<unsigned>(std::max<std::int64_t>(
          1, cli.get_int("fleet-worker-threads")));
      supervisor =
          std::make_unique<am::fleet::Supervisor>(std::move(fleet_config));
      if (!supervisor->start(&error)) {
        std::cerr << "bench_s1_service: cannot start fleet: " << error << "\n";
        return 1;
      }
      if (!supervisor->wait_all_up(supervisor->config().start_grace_ms)) {
        std::cerr << "bench_s1_service: warning: fleet degraded at start\n";
      }
      am::fleet::RouterConfig router_config;
      router = std::make_unique<am::fleet::Router>(*supervisor, router_config);
      server = std::make_unique<am::service::Server>(*router, server_config);
    } else {
      am::service::ServiceConfig core_config;
      core_config.cache_capacity = static_cast<std::size_t>(
          std::max<std::int64_t>(0, cli.get_int("cache-capacity")));
      core_config.metrics = metrics_on;
      core = std::make_unique<am::service::ServiceCore>(std::move(core_config));
      server = std::make_unique<am::service::Server>(*core, server_config);
    }
    if (!server->start(&error)) {
      std::cerr << "bench_s1_service: cannot start in-process daemon: "
                << error << "\n";
      return 1;
    }
    endpoint = server->bound_endpoints().front();
    std::cout << "(in-process "
              << (fleet_workers > 0
                      ? "fleet front (" + std::to_string(fleet_workers) +
                            " workers) on "
                      : "daemon on ")
              << endpoint.to_string() << ")\n";
  }

  const std::vector<std::string> requests = build_requests(cli);
  const double key_zipf_s = cli.get_double("key-zipf-s");
  std::unique_ptr<am::ZipfSampler> zipf;
  if (key_zipf_s > 0.0) {
    zipf = std::make_unique<am::ZipfSampler>(requests.size(), key_zipf_s);
  }
  const double duration_s =
      static_cast<double>(std::max<std::int64_t>(10, cli.get_int("duration-ms"))) /
      1000.0;
  const double target_qps = cli.get_double("target-qps");
  const bool verify = cli.get_bool("verify");
  std::map<std::string, std::string> verify_map;
  std::mutex verify_mu;

  std::vector<Row> rows;
  if (target_qps > 0.0) {
    const auto conns_list = cli.get_int_list("connections");
    const unsigned conns = static_cast<unsigned>(
        std::max<std::int64_t>(1, conns_list.empty() ? 8 : conns_list.front()));
    Row row;
    row.connections = conns;
    row.target_qps = target_qps;
    row.result = run_load(endpoint, conns, duration_s,
                          static_cast<double>(conns) / target_qps, requests,
                          verify ? &verify_map : nullptr, &verify_mu,
                          zipf.get());
    rows.push_back(std::move(row));
  } else {
    for (const std::int64_t c : cli.get_int_list("connections")) {
      if (c < 1) continue;
      Row row;
      row.connections = static_cast<unsigned>(c);
      row.result = run_load(endpoint, row.connections, duration_s, 0.0,
                            requests, verify ? &verify_map : nullptr,
                            &verify_mu, zipf.get());
      rows.push_back(std::move(row));
    }
  }

  // Final daemon stats (cache hit rate for the report), then drain the
  // in-process daemon.
  std::string stats_result;
  {
    ServiceClient client;
    if (client.connect(endpoint, &error)) {
      const auto response =
          client.roundtrip("{\"kind\":\"stats\"}", &error);
      if (response.has_value()) {
        if (const auto doc = am::JsonValue::parse(*response)) {
          if (const am::JsonValue* result = doc->find("result")) {
            std::ostringstream os;
            am::JsonWriter w(os);
            emit_json_value(w, *result);
            stats_result = os.str();
          }
        }
      }
    }
  }
  if (server != nullptr) {
    am::service::Server::request_shutdown();
    server->wait();
  }

  am::Table table({"conns", "target_qps", "requests", "errors", "qps",
                   "mean_us", "p50_us", "p99_us", "max_us"});
  std::uint64_t verify_failures = 0;
  for (const Row& row : rows) {
    const am::Summary s = am::summarize(row.result.latency_us);
    table.add_row({am::Table::num(std::size_t{row.connections}),
                   row.target_qps > 0.0 ? am::Table::num(row.target_qps, 0)
                                        : std::string("-"),
                   am::Table::num(std::size_t{row.result.requests}),
                   am::Table::num(std::size_t{row.result.errors}),
                   am::Table::num(row.result.qps(), 1),
                   am::Table::num(s.mean, 1), am::Table::num(s.p50, 1),
                   am::Table::num(s.p99, 1), am::Table::num(s.max, 1)});
    verify_failures += row.result.verify_failures;
  }

  const std::string title =
      target_qps > 0.0 ? "S1 - am_serve paced load (target QPS)"
                       : "S1 - am_serve saturation sweep (closed loop)";
  std::cout << "\n== " << title << " ==\n" << table;
  if (verify) {
    std::cout << "(verify: " << verify_map.size() << " distinct requests, "
              << verify_failures << " response mismatches)\n";
  }

  if (!cli.get("csv").empty()) {
    if (table.write_csv(cli.get("csv"))) {
      std::cout << "(csv written to " << cli.get("csv") << ")\n";
    } else {
      std::cerr << "failed to write csv to " << cli.get("csv") << "\n";
    }
  }

  if (!cli.get("json-out").empty()) {
    std::ostringstream os;
    am::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", "am-serve-load/1");
    w.kv("bench", cli.program_name());
    w.kv("command", cli.command_line());
    w.kv("endpoint", endpoint.to_string());
    w.kv("mode", target_qps > 0.0 ? "target-qps" : "saturation");
    w.kv("duration_s", duration_s);
    w.kv("distinct_requests", std::uint64_t{requests.size()});
    w.kv("key_zipf_s", key_zipf_s);
    w.kv("fleet_workers", static_cast<std::uint64_t>(fleet_workers));
    w.kv("verify_failures", verify_failures);
    w.key("rows").begin_array();
    for (const Row& row : rows) {
      const am::Summary s = am::summarize(row.result.latency_us);
      w.begin_object();
      w.kv("connections", std::uint64_t{row.connections});
      if (row.target_qps > 0.0) w.kv("target_qps", row.target_qps);
      w.kv("requests", row.result.requests);
      w.kv("errors", row.result.errors);
      w.kv("duration_s", row.result.duration_s);
      w.kv("qps", row.result.qps());
      w.key("latency_us").begin_object();
      w.kv("count", std::uint64_t{s.count});
      w.kv("mean", s.mean);
      w.kv("p50", s.p50);
      w.kv("p90", s.p90);
      w.kv("p99", s.p99);
      w.kv("max", s.max);
      w.end_object();
      w.key("timeline").begin_array();
      for (const TimelineBucket& b : build_timeline(row.result, duration_s)) {
        w.begin_object();
        w.kv("t_s", b.t_s);
        w.kv("width_s", b.width_s);
        w.kv("requests", b.requests);
        w.kv("qps", b.qps);
        w.kv("p50_us", b.p50);
        w.kv("p90_us", b.p90);
        w.kv("p99_us", b.p99);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    if (!stats_result.empty()) {
      if (const auto stats = am::JsonValue::parse(stats_result)) {
        w.key("server_stats");
        emit_json_value(w, *stats);
      }
    }
    w.end_object();
    std::ofstream out(cli.get("json-out"));
    out << os.str() << "\n";
    if (out) {
      std::cout << "(json report written to " << cli.get("json-out") << ")\n";
    } else {
      std::cerr << "failed to write json report to " << cli.get("json-out")
                << "\n";
    }
  }

  if (verify_failures > 0) return 1;
  for (const Row& row : rows) {
    if (row.result.requests == 0) return 1;  // nothing measured
  }
  return 0;
}
