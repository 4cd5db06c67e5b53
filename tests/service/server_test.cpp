#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_core/backend.hpp"
#include "bench_core/sweep.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/net.hpp"
#include "service/server.hpp"

namespace am::service {
namespace {

// --- ServiceCore (no sockets) ------------------------------------------------

Request parse_or_die(const std::string& line) {
  std::string error;
  const auto r = parse_request(line, &error);
  EXPECT_TRUE(r.has_value()) << line << " -> " << error;
  return r.value_or(Request{});
}

TEST(ServiceCore, PredictIsDeterministicAndCached) {
  ServiceCore core({});
  const Request r = parse_or_die(
      R"({"kind":"predict","prim":"FAA","threads":16,"work":100})");
  const auto first = core.handle(r);
  const auto second = core.handle(r);
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.response, second.response);  // byte-identical
  EXPECT_NE(first.response.find("\"throughput_mops\""), std::string::npos);
}

TEST(ServiceCore, EquivalentSpellingsShareOneCacheEntry) {
  ServiceCore core({});
  const auto a = core.handle(parse_or_die(
      R"({"kind":"predict","prim":"FAA","threads":16,"work":100})"));
  const auto b = core.handle(parse_or_die(
      R"({"work":100.0,"threads":16.0,"prim":"FAA","kind":"predict","id":"x"})"));
  EXPECT_TRUE(b.cache_hit);
  // Same result payload; only the echoed id differs.
  EXPECT_NE(b.response.find("\"id\":\"x\""), std::string::npos);
  EXPECT_EQ(core.cache().counters().entries, 1u);
  (void)a;
}

TEST(ServiceCore, ThreadsBeyondMachineCoresIsAnError) {
  ServiceCore core({});
  const auto r = core.handle(parse_or_die(
      R"({"kind":"predict","machine":"test","prim":"FAA","threads":5})"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.response.find("\"error\""), std::string::npos);
  EXPECT_NE(r.response.find("4 cores"), std::string::npos);
}

TEST(ServiceCore, AdviseTargetsAllAnswer) {
  ServiceCore core({});
  for (const char* line : {
           R"({"kind":"advise","target":"counter","threads":16})",
           R"({"kind":"advise","target":"lock","threads":16,"critical":100})",
           R"({"kind":"advise","target":"backoff","threads":16})",
       }) {
    const auto r = core.handle(parse_or_die(line));
    EXPECT_TRUE(r.ok) << line << " -> " << r.response;
  }
}

TEST(ServiceCore, CalibrateReplaysClientSamples) {
  ServiceCore core({});
  const auto r = core.handle(parse_or_die(
      R"({"kind":"calibrate","machine":"test","samples":[)"
      R"({"mode":"private","prim":"FAA","threads":1,"cycles_per_op":12},)"
      R"({"mode":"shared","prim":"FAA","threads":2,"cycles_per_op":120},)"
      R"({"mode":"shared","prim":"FAA","threads":4,"cycles_per_op":130}]})"));
  ASSERT_TRUE(r.ok) << r.response;
  EXPECT_NE(r.response.find("\"t_near\""), std::string::npos);
  EXPECT_NE(r.response.find("\"amp1\":\"amp1\\n"), std::string::npos);
  // Missing the shared sweep: calibration must fail loudly, not fabricate.
  const auto bad = core.handle(parse_or_die(
      R"({"kind":"calibrate","machine":"test","samples":[)"
      R"({"mode":"private","prim":"FAA","threads":1,"cycles_per_op":12}]})"));
  EXPECT_FALSE(bad.ok);
}

TEST(ServiceCore, SimulateRunsAndCaches) {
  ServiceCore core({});
  const Request r = parse_or_die(
      R"({"kind":"simulate","machine":"test","prim":"CAS","threads":4})");
  const auto first = core.handle(r);
  ASSERT_TRUE(first.ok) << first.response;
  EXPECT_NE(first.response.find("\"duration_cycles\""), std::string::npos);
  const auto second = core.handle(r);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.response, second.response);
  // A different seed is a different point.
  const auto other = core.handle(parse_or_die(
      R"({"kind":"simulate","machine":"test","prim":"CAS","threads":4,"seed":2})"));
  EXPECT_FALSE(other.cache_hit);
}

TEST(ServiceCore, SimulateOverCycleBudgetTimesOutUncached) {
  // ServiceConfig::max_point_cycles (am_serve --max-point-cycles): a point
  // over budget answers a timeout error and lands in neither cache tier.
  const std::string dir = testing::TempDir() + "/am_budget_test_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ServiceConfig config;
  config.sim_cache_dir = dir;
  config.max_point_cycles = 100;
  ServiceCore core(config);
  const Request r = parse_or_die(
      R"({"kind":"simulate","machine":"test","prim":"FAA","threads":2,"seed":11})");
  const auto first = core.handle(r);
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.response.find("\"simulation timeout: "), std::string::npos)
      << first.response;
  const auto second = core.handle(r);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.response, first.response);
  EXPECT_EQ(core.cache().counters().entries, 0u);
  std::size_t disk_entries = 0;
  if (std::filesystem::exists(dir)) {
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
      if (e.path().extension() == ".json") ++disk_entries;
    }
  }
  EXPECT_EQ(disk_entries, 0u);
}

std::uint64_t sweep_results(const char* source) {
  return obs::metrics::default_registry()
      .counter("am_sweep_point_results_total",
               "Successful sweep-point results, by source",
               {{"source", source}})
      .value();
}

TEST(ServiceCore, SecondCoreServesTheFirstCoresDiskTier) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/am_disk_tier_test_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  ServiceConfig config;
  config.cache_capacity = 0;
  config.sim_cache_dir = dir;
  const Request r = parse_or_die(
      R"({"kind":"simulate","machine":"test","prim":"CAS","threads":4,"seed":5})");
  const HandleResult first = ServiceCore(config).handle(r);
  ASSERT_TRUE(first.ok) << first.response;
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".json") entries.push_back(e.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  // The entry renders to the result object the core answered with.
  const auto read_entry = [&r](const fs::path& path) -> std::string {
    std::ifstream in(path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    const auto run =
        bench::parse_measured_run(bytes.str(), path.stem().string());
    return run.has_value() ? render_simulate_result(r.point, *run) : "";
  };
  const std::string cached = read_entry(entries[0]);
  ASSERT_FALSE(cached.empty());
  EXPECT_NE(first.response.find(cached), std::string::npos);

  // A second core on the directory reads the point instead of running it.
  const bool counted = obs::metrics::enabled();
  const std::uint64_t cache_before = sweep_results("cache");
  const std::uint64_t executed_before = sweep_results("executed");
  const HandleResult second = ServiceCore(config).handle(r);
  EXPECT_EQ(second.response, first.response);
  if (counted) {
    EXPECT_EQ(sweep_results("cache"), cache_before + 1);
    EXPECT_EQ(sweep_results("executed"), executed_before);
  }

  // A garbage entry is moved aside and the point recomputed, same bytes.
  {
    std::ofstream garbage(entries[0], std::ios::trunc);
    garbage << "{\"v\":\"not a sweep result";
  }
  const HandleResult healed = ServiceCore(config).handle(r);
  EXPECT_EQ(healed.response, first.response);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / entries[0].filename()));
  if (counted) {
    EXPECT_EQ(sweep_results("cache"), cache_before + 1);
    EXPECT_EQ(sweep_results("executed"), executed_before + 1);
  }
  EXPECT_FALSE(read_entry(entries[0]).empty());  // rewritten
  fs::remove_all(dir);
}

TEST(ServiceCore, LeavesTheProcessRunLogAlone) {
  // A hosting process's run log is its own: calibrate and simulate record
  // nothing in it and wipe nothing from it.
  bench::clear_run_log();
  bench::RecordedRun sentinel;
  sentinel.run.machine = "sentinel";
  bench::append_run_log(sentinel);
  ServiceCore core({});
  const std::string head =
      R"({"kind":"calibrate","machine":"test","samples":[)"
      R"({"mode":"private","prim":"FAA","threads":1,"cycles_per_op":12})";
  const auto calibrated = core.handle(parse_or_die(
      head +
      R"(,{"mode":"shared","prim":"FAA","threads":2,"cycles_per_op":120},)"
      R"({"mode":"shared","prim":"FAA","threads":4,"cycles_per_op":130}]})"));
  EXPECT_TRUE(calibrated.ok) << calibrated.response;
  EXPECT_FALSE(core.handle(parse_or_die(head + "]}")).ok);  // refused
  const auto simulated = core.handle(parse_or_die(
      R"({"kind":"simulate","machine":"test","threads":2,"seed":77})"));
  EXPECT_TRUE(simulated.ok) << simulated.response;
  ASSERT_EQ(bench::run_log().size(), 1u);
  EXPECT_EQ(bench::run_log()[0].run.machine, "sentinel");
  bench::clear_run_log();
}

TEST(ServiceCore, SpellingsSharingAKeyGetByteIdenticalRepliesUncached) {
  // Both works print as 999.999999999 at the canonical 12 significant
  // digits, so they share a cache key; an uncached core must answer them
  // with identical bytes too, or whichever arrives first decides what a
  // caching core serves for both.
  ServiceConfig config;
  config.cache_capacity = 0;
  ServiceCore core(config);
  const Request a = parse_or_die(
      R"({"kind":"predict","prim":"FAA","threads":7,"work":999.9999999991})");
  const Request b = parse_or_die(
      R"({"kind":"predict","prim":"FAA","threads":7,"work":999.9999999989})");
  ASSERT_EQ(request_cache_key(a), request_cache_key(b));
  const auto first = core.handle(a);
  const auto second = core.handle(b);
  ASSERT_TRUE(first.ok) << first.response;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(first.response, second.response);
}

// --- Server over real sockets ------------------------------------------------

struct LiveServer {
  ServiceCore core;
  Server server;
  Endpoint endpoint;

  explicit LiveServer(ServerConfig config = {}, ServiceConfig core_cfg = {})
      : core(std::move(core_cfg)),
        server(core,
               [&config] {
                 if (config.listen.empty()) {
                   Endpoint ep;
                   ep.host = "127.0.0.1";
                   ep.port = 0;
                   config.listen.push_back(ep);
                 }
                 return config;
               }()) {
    std::string error;
    if (!server.start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    endpoint = server.bound_endpoints().front();
  }

  ~LiveServer() {
    Server::request_shutdown();
    server.wait();
  }
};

std::string roundtrip_or_die(ServiceClient& client, const std::string& line) {
  std::string error;
  const auto response = client.roundtrip(line, &error);
  EXPECT_TRUE(response.has_value()) << line << " -> " << error;
  return response.value_or("");
}

TEST(Server, ServesAllKindsOverTcp) {
  LiveServer live;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  EXPECT_NE(roundtrip_or_die(client, R"({"kind":"ping"})")
                .find("\"pong\":true"),
            std::string::npos);
  EXPECT_NE(roundtrip_or_die(
                client, R"({"kind":"predict","prim":"FAA","threads":8})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(roundtrip_or_die(client,
                             R"({"kind":"advise","target":"backoff","threads":8})")
                .find("backoff_cycles"),
            std::string::npos);
  const std::string stats = roundtrip_or_die(client, R"({"kind":"stats"})");
  EXPECT_NE(stats.find("am-serve-stats/2"), std::string::npos);
  // A malformed line gets an error envelope, and the connection survives.
  EXPECT_NE(roundtrip_or_die(client, "this is not json")
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(roundtrip_or_die(client, R"({"kind":"ping"})")
                .find("\"pong\""),
            std::string::npos);
}

TEST(Server, ServesOverUnixSocket) {
  const std::string path =
      testing::TempDir() + "/am_serve_test_" + std::to_string(::getpid()) +
      ".sock";
  ServerConfig config;
  Endpoint unix_ep;
  unix_ep.kind = Endpoint::Kind::kUnix;
  unix_ep.path = path;
  config.listen.push_back(unix_ep);
  {
    LiveServer live(config);
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
    EXPECT_NE(roundtrip_or_die(client, R"({"kind":"ping"})")
                  .find("\"pong\""),
              std::string::npos);
  }
  // Drained server removed its socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(Server, ByteIdenticalResponsesAcrossConnectionsAndWorkers) {
  ServerConfig config;
  config.service_threads = 4;
  LiveServer live(config);
  const std::string line =
      R"({"kind":"predict","prim":"CAS","threads":12,"work":50})";
  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  // Warm the cache first so every request below is deterministically a hit
  // (concurrent cold misses on one key would all compute it).
  {
    ServiceClient warm;
    std::string error;
    ASSERT_TRUE(warm.connect(live.endpoint, &error)) << error;
    roundtrip_or_die(warm, line);
  }
  std::vector<std::thread> threads;
  std::vector<std::set<std::string>> seen(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient client;
      std::string error;
      ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
      for (int i = 0; i < kPerClient; ++i) {
        seen[c].insert(roundtrip_or_die(client, line));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::string> all;
  for (const auto& s : seen) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), 1u);  // every response byte-identical

  // The daemon's stats must show the repeats were cache hits.
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  const std::string stats = roundtrip_or_die(client, R"({"kind":"stats"})");
  const auto doc = JsonValue::parse(stats);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* cache = doc->find("result")->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->as_number(), kClients * kPerClient * 1.0);
  EXPECT_EQ(cache->find("misses")->as_number(), 1.0);
  EXPECT_EQ(cache->find("entries")->as_number(), 1.0);
}

TEST(Server, Sustains64ConcurrentClosedLoopConnections) {
  ServerConfig config;
  config.service_threads = 4;  // far fewer workers than connections
  LiveServer live(config);
  constexpr int kConns = 64;
  constexpr int kPerConn = 5;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient client;
      std::string error;
      if (!client.connect(live.endpoint, &error)) return;
      for (int i = 0; i < kPerConn; ++i) {
        const std::string line =
            R"({"kind":"predict","prim":"FAA","threads":)" +
            std::to_string(1 + (c + i) % 36) + "}";
        std::string response;
        if (!client.send_line(line) || !client.recv_line(&response)) return;
        if (response.find("\"ok\":true") != std::string::npos) ++ok_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kConns * kPerConn);
}

TEST(Server, DrainFinishesInFlightRequestsThenExits) {
  ServerConfig config;
  config.service_threads = 2;
  LiveServer live(config);
  // Keep a few clients mid-conversation while the drain lands.
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      ServiceClient client;
      std::string error;
      if (!client.connect(live.endpoint, &error)) return;
      for (int i = 0; i < 50; ++i) {
        const auto response =
            client.roundtrip(R"({"kind":"predict","prim":"FAA","threads":8})",
                             &error);
        if (!response.has_value()) return;  // drain closed us: fine
        if (response->find("\"ok\":true") != std::string::npos) ++answered;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Server::request_shutdown();
  live.server.wait();  // must return: drain completes despite open loops
  for (auto& t : threads) t.join();
  // Every response that was sent was a complete, well-formed line.
  EXPECT_GT(answered.load(), 0);
}

TEST(Server, StatsCountsKindsAndErrors) {
  LiveServer live;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  roundtrip_or_die(client, R"({"kind":"ping"})");
  roundtrip_or_die(client, R"({"kind":"predict","prim":"FAA","threads":4})");
  roundtrip_or_die(client, "garbage");
  const std::string stats = roundtrip_or_die(client, R"({"kind":"stats"})");
  const auto doc = JsonValue::parse(stats);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* req = doc->find("result")->find("requests");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->find("ping")->as_number(), 1.0);
  EXPECT_EQ(req->find("predict")->as_number(), 1.0);
  EXPECT_EQ(req->find("parse_errors")->as_number(), 1.0);
  // The stats snapshot is taken before the stats request itself is
  // recorded, so it does not count itself.
  EXPECT_EQ(req->find("stats")->as_number(), 0.0);
  EXPECT_EQ(req->find("total")->as_number(), 3.0);
}

TEST(Server, StatsReportsRollingQps) {
  LiveServer live;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  roundtrip_or_die(client, R"({"kind":"ping"})");
  const std::string stats = roundtrip_or_die(client, R"({"kind":"stats"})");
  const auto doc = JsonValue::parse(stats);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* result = doc->find("result");
  ASSERT_NE(result, nullptr);
  // The lifetime field survives unchanged; the rolling fields ride along.
  for (const char* key : {"qps", "qps_1s", "qps_10s", "qps_60s"}) {
    const JsonValue* v = result->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_GE(v->as_number(), 0.0) << key;
  }
}

TEST(Server, MetricsScrapeExposesPrometheusText) {
  LiveServer live;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  roundtrip_or_die(client, R"({"kind":"ping"})");
  roundtrip_or_die(client, R"({"kind":"predict","prim":"FAA","threads":4})");
  roundtrip_or_die(client, R"({"kind":"predict","prim":"FAA","threads":4})");

  const std::string response =
      roundtrip_or_die(client, R"({"v":"am-serve/1","kind":"metrics"})");
  const auto doc = JsonValue::parse(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("ok")->as_bool());
  const JsonValue* result = doc->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("content_type")->as_string(),
            "text/plain; version=0.0.4");
  const std::string text = result->find("text")->as_string();

  // Counters live in the process-wide default registry, shared with every
  // other server this test binary started — assert presence and floors,
  // not exact lifetime values.
  const auto samples = obs::metrics::parse_prometheus_text(text);
  EXPECT_NE(text.find("# TYPE am_server_requests_total counter"),
            std::string::npos);
  const auto pings = obs::metrics::find_sample(
      samples, "am_server_requests_total", {{"kind", "ping"}});
  ASSERT_TRUE(pings.has_value());
  EXPECT_GE(*pings, 1.0);
  const auto predicts = obs::metrics::find_sample(
      samples, "am_server_requests_total", {{"kind", "predict"}});
  ASSERT_TRUE(predicts.has_value());
  EXPECT_GE(*predicts, 2.0);
  // The identical predict pair produced at least one cache hit.
  const auto hits =
      obs::metrics::find_sample(samples, "am_cache_hits_total");
  ASSERT_TRUE(hits.has_value());
  EXPECT_GE(*hits, 1.0);
  // Latency histogram and derived rolling families are present.
  EXPECT_TRUE(obs::metrics::find_sample(
                  samples, "am_server_request_latency_us_count")
                  .has_value());
  EXPECT_TRUE(obs::metrics::find_sample(samples, "am_qps",
                                        {{"window", "10s"}})
                  .has_value());
  EXPECT_TRUE(obs::metrics::find_sample(
                  samples, "am_request_latency_window_us",
                  {{"window", "10s"}, {"quantile", "0.99"}})
                  .has_value());
  EXPECT_TRUE(obs::metrics::find_sample(samples, "am_cache_hit_ratio",
                                        {{"window", "60s"}})
                  .has_value());
}

std::string scrape_or_die(ServiceClient& client) {
  const auto doc =
      JsonValue::parse(roundtrip_or_die(client, R"({"kind":"metrics"})"));
  EXPECT_TRUE(doc.has_value());
  if (!doc.has_value()) return "";
  return doc->find("result")->find("text")->as_string();
}

TEST(Server, ScrapeAndStatsReadThisServersBooks) {
  // Traffic on an earlier server must not leak into a later one's scrape.
  {
    LiveServer first;
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect(first.endpoint, &error)) << error;
    roundtrip_or_die(client, R"({"kind":"ping"})");
    roundtrip_or_die(client, R"({"kind":"predict","prim":"FAA","threads":4})");
  }
  LiveServer live;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  roundtrip_or_die(client, R"({"kind":"ping"})");
  roundtrip_or_die(client, R"({"kind":"predict","prim":"FAA","threads":4})");
  const auto live_samples =
      obs::metrics::parse_prometheus_text(scrape_or_die(client));
  EXPECT_EQ(obs::metrics::find_sample(live_samples, "am_server_requests_total",
                                      {{"kind", "ping"}}),
            1.0);
  EXPECT_EQ(obs::metrics::find_sample(live_samples, "am_server_requests_total",
                                      {{"kind", "predict"}}),
            1.0);

  // Once drained, every request is recorded: the scrape and the stats
  // document read the same books, so they agree exactly.
  Server::request_shutdown();
  live.server.wait();
  const auto samples =
      obs::metrics::parse_prometheus_text(live.server.metrics_text());
  const auto stats = JsonValue::parse(live.server.stats_json());
  ASSERT_TRUE(stats.has_value());
  const double latency_count =
      stats->find("latency_us")->find("count")->as_number();
  EXPECT_EQ(latency_count, 3.0);  // ping, predict, metrics
  EXPECT_EQ(obs::metrics::find_sample(samples,
                                      "am_server_request_latency_us_count"),
            latency_count);
  EXPECT_EQ(obs::metrics::find_sample(samples, "am_server_requests_total",
                                      {{"kind", "predict"}}),
            stats->find("requests")->find("predict")->as_number());
  EXPECT_EQ(obs::metrics::find_sample(samples, "am_cache_misses_total"),
            stats->find("cache")->find("misses")->as_number());
}

TEST(Server, ScrapeRendersEveryFamilyOnce) {
  LiveServer live;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  roundtrip_or_die(client, R"({"kind":"ping"})");
  roundtrip_or_die(client, R"({"kind":"predict","prim":"FAA","threads":4})");
  roundtrip_or_die(
      client, R"({"kind":"simulate","machine":"test","prim":"FAA","threads":2})");
  const std::string text = scrape_or_die(client);
  // Families come from the server's books, the handler and the process-wide
  // layers; none may be rendered by two of them.
  std::map<std::string, int> type_lines;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    ++type_lines[line.substr(7, line.find(' ', 7) - 7)];
  }
  for (const char* family : {"am_server_requests_total", "am_cache_hits_total",
                             "am_sim_runs_total", "am_qps"}) {
    EXPECT_EQ(type_lines.count(family), 1u) << family;
  }
  for (const auto& [family, n] : type_lines) {
    EXPECT_EQ(n, 1) << family;
  }
}

// Answers every request with a pong, but holds the one whose id is "hold"
// until release is counted down.
class HoldingHandler final : public RequestHandler {
 public:
  HandleResult handle(const Request& r, std::string_view raw,
                      const RequestContext* ctx) override {
    (void)raw;
    (void)ctx;
    if (r.id == "hold") {
      held.count_down();
      release.wait();
    }
    return {make_result_response(r, R"({"pong":true})"), true, false};
  }

  std::latch held{1};
  std::latch release{1};
};

TEST(Server, HeldRequestDoesNotDelayAnotherConnection) {
  HoldingHandler handler;
  ServerConfig config;
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  config.listen.push_back(ep);
  config.service_threads = 2;
  config.metrics = false;
  Server server(handler, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const Endpoint& bound = server.bound_endpoints().front();

  ServiceClient held_client;
  held_client.set_timeout_ms(10000);
  ServiceClient other;
  other.set_timeout_ms(5000);
  std::optional<std::string> pong;
  std::string held_reply;
  if (held_client.connect(bound, &error) &&
      held_client.send_line(R"({"kind":"ping","id":"hold"})")) {
    handler.held.wait();
    // One worker is inside the held request; the other must answer here.
    if (other.connect(bound, &error)) {
      pong = other.roundtrip(R"({"kind":"ping","id":"free"})", &error);
    }
    handler.release.count_down();
    held_client.recv_line(&held_reply);
  }
  Server::request_shutdown();
  server.wait();

  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_NE(pong->find("\"id\":\"free\""), std::string::npos) << *pong;
  EXPECT_NE(held_reply.find("\"id\":\"hold\""), std::string::npos)
      << held_reply;
}

TEST(Server, ClientThatNeverReadsNeitherPinsTheWorkerNorWedgesTheDrain) {
  // One worker, and a client that pipelines advise lines without ever
  // reading a reply: once the socket buffers fill, the worker's write
  // stalls. The stall bound must free the worker for the next client and
  // for the drain.
  ServerConfig config;
  config.service_threads = 1;
  LiveServer live(config);
  const auto bound = kWriteStall + std::chrono::seconds(1);
  const auto seconds_since = [](auto t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::string line;
  for (int i = 0; i < 1000; ++i) {
    line += R"({"kind":"advise","target":"lock","threads":16,"critical":100})"
            "\n";
  }
  std::vector<int> fds;
  std::vector<std::thread> senders;
  const auto answered = [&live] {
    const auto stats = JsonValue::parse(live.server.stats_json());
    return stats->find("requests")->find("total")->as_number();
  };
  // Starts a client that pipelines lines and never reads. The worker answers
  // them until a reply write blocks on full socket buffers, which takes
  // megabytes of replies, and its answered count stops when that write
  // begins. Returns once the count has stood still for 1 s, with a time no
  // later than its last change: the bounds below are timed from there, so
  // they measure the write stall, not how fast a loaded host fills the
  // buffers.
  const auto start_non_reader = [&] {
    using Clock = std::chrono::steady_clock;
    std::string error;
    const int fd = connect_to(live.endpoint, &error);
    if (fd < 0) {
      ADD_FAILURE() << error;
      return Clock::now();
    }
    fds.push_back(fd);
    const double before = answered();
    auto checked = Clock::now();
    auto moved_by = checked;
    // Blocking writes until the server hangs up (or teardown shuts the
    // socket down); 64 MB is far beyond any socket buffer.
    senders.emplace_back([fd, &line] {
      for (int sent = 0; sent < 1000; ++sent) {
        if (!write_all(fd, line)) return;
      }
    });
    const auto give_up = checked + std::chrono::seconds(30);
    for (double last = before;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const auto at = Clock::now();
      const double count = answered();
      // A change seen now came after the previous check read the count.
      if (count != last) moved_by = checked;
      checked = at;
      last = count;
      if (at >= give_up ||
          (count > before && at - moved_by >= std::chrono::seconds(1))) {
        return moved_by;
      }
    }
  };

  auto t0 = start_non_reader();
  ServiceClient client;
  client.set_timeout_ms(static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(bound).count()));
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  const auto pong = client.roundtrip(R"({"kind":"ping"})", &error);
  EXPECT_TRUE(pong.has_value()) << error;
  EXPECT_LT(seconds_since(t0), std::chrono::duration<double>(bound).count())
      << "ping answered this long after the worker's write stalled";

  t0 = start_non_reader();
  Server::request_shutdown();
  auto drained =
      std::async(std::launch::async, [&live] { live.server.wait(); });
  EXPECT_EQ(drained.wait_until(t0 + bound), std::future_status::ready)
      << "drain still running " << seconds_since(t0)
      << " s after the worker's write stalled";

  // Hanging the non-readers up also frees a worker the bound failed to.
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (auto& t : senders) t.join();
  for (const int fd : fds) ::close(fd);
  drained.wait();
}

TEST(Server, ResponseThatCannotBeWrittenIsNotRecorded) {
  // The client shuts its read side, then sends a ping: on a unix socket the
  // server's send of the pong fails at once with EPIPE. The server hangs up,
  // and a reply that never reached the client takes no count and no latency
  // sample.
  const std::string path = testing::TempDir() + "/am_serve_unwritten_" +
                           std::to_string(::getpid()) + ".sock";
  ServerConfig config;
  Endpoint unix_ep;
  unix_ep.kind = Endpoint::Kind::kUnix;
  unix_ep.path = path;
  config.listen.push_back(unix_ep);
  LiveServer live(config);
  std::string error;
  const int fd = connect_to(live.endpoint, &error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  ASSERT_TRUE(write_all(fd, "{\"kind\":\"ping\"}\n"));

  // A snapshot reads `accepted` after `active`, so only a snapshot taken
  // after one that saw the accept shows the hang-up.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool accepted = false;
  bool hung_up = false;
  while (!hung_up && std::chrono::steady_clock::now() < give_up) {
    const auto stats = JsonValue::parse(live.server.stats_json());
    const JsonValue* conns = stats->find("connections");
    hung_up = accepted && conns->find("active")->as_number() == 0.0;
    accepted = conns->find("accepted")->as_number() == 1.0;
    if (!hung_up) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  ASSERT_TRUE(hung_up) << "the server kept the connection its write failed on";

  const auto stats = JsonValue::parse(live.server.stats_json());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("requests")->find("total")->as_number(), 0.0);
  EXPECT_EQ(stats->find("latency_us")->find("count")->as_number(), 0.0);
  const auto samples =
      obs::metrics::parse_prometheus_text(live.server.metrics_text());
  EXPECT_EQ(obs::metrics::find_sample(samples, "am_server_responses_total"),
            0.0);
}

TEST(Server, MetricsDisabledStillAnswersStats) {
  ServerConfig config;
  config.metrics = false;
  LiveServer live(config);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.connect(live.endpoint, &error)) << error;
  roundtrip_or_die(client, R"({"kind":"ping"})");
  const std::string stats = roundtrip_or_die(client, R"({"kind":"stats"})");
  const auto doc = JsonValue::parse(stats);
  ASSERT_TRUE(doc.has_value());
  // Rolling windows are off; the lifetime qps fallback still answers.
  EXPECT_GE(doc->find("result")->find("qps")->as_number(), 0.0);
}

}  // namespace
}  // namespace am::service
