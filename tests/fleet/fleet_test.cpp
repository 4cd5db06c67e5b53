// End-to-end fleet tests: a real Supervisor forking real am_serve worker
// processes (AM_SERVE_BIN, injected by CMake), fronted by the Router.
//
// These are the robustness contracts am_fleet ships on:
//   - byte-identity: the fleet answers exactly the bytes a single daemon
//     would, regardless of which worker serves, before and after restarts;
//   - no dropped requests: SIGKILLing a worker mid-load yields only
//     successes or structured error envelopes, never hangs or raw resets
//     surfacing to the client as protocol garbage;
//   - crashed workers rejoin; spawn->die loops open the circuit breaker;
//   - a dead shard with a cached answer serves stale instead of erroring,
//     and a dark fleet answers simulate from the shared disk tier.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "fleet/chaos.hpp"
#include "fleet/router.hpp"
#include "fleet/supervisor.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/config.hpp"

namespace am::fleet {
namespace {

std::string serve_binary() {
#ifdef AM_SERVE_BIN
  return AM_SERVE_BIN;
#else
  return find_worker_binary();
#endif
}

std::string fresh_runtime_dir() {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "/am_fleet_test_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

FleetConfig fast_config(std::size_t workers) {
  FleetConfig config;
  config.workers = workers;
  config.worker_binary = serve_binary();
  config.runtime_dir = fresh_runtime_dir();
  config.worker_threads = 2;
  config.health_interval_ms = 50;
  config.probe_timeout_ms = 1000;
  config.restart_backoff_ms = 20;
  return config;
}

/// Supervisor + Router, started and waited-up, or the test fails.
struct LiveFleet {
  Supervisor supervisor;
  Router router;

  explicit LiveFleet(FleetConfig fleet_config, RouterConfig router_config = {})
      : supervisor(std::move(fleet_config)),
        router(supervisor, [&router_config] {
          return router_config;
        }()) {
    std::string error;
    if (!supervisor.start(&error)) {
      ADD_FAILURE() << "fleet start failed: " << error;
      return;
    }
    if (!supervisor.wait_all_up(supervisor.config().start_grace_ms)) {
      ADD_FAILURE() << "fleet did not come up";
    }
  }

  ~LiveFleet() { supervisor.drain(); }

  service::HandleResult handle(const std::string& line) {
    std::string error;
    const auto request = service::parse_request(line, &error);
    EXPECT_TRUE(request.has_value()) << line << " -> " << error;
    if (!request.has_value()) return {};
    return router.handle(*request, line, nullptr);
  }
};

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

TEST(Fleet, MissingBinaryFailsStartWithError) {
  FleetConfig config = fast_config(1);
  config.worker_binary = "/nonexistent/am_serve";
  Supervisor supervisor(std::move(config));
  std::string error;
  EXPECT_FALSE(supervisor.start(&error));
  EXPECT_FALSE(error.empty());
}

TEST(Fleet, ServesByteIdenticalToSingleDaemon) {
  ASSERT_FALSE(serve_binary().empty());
  LiveFleet fleet(fast_config(2));
  service::ServiceCore core({});
  for (const char* line : {
           R"({"kind":"predict","prim":"FAA","threads":16,"work":100})",
           R"({"kind":"predict","prim":"CAS","threads":8,"id":"q1"})",
           R"({"kind":"advise","target":"counter","threads":16})",
           R"({"kind":"simulate","machine":"test","prim":"TAS","threads":2,"seed":7})",
       }) {
    const auto via_fleet = fleet.handle(line);
    EXPECT_TRUE(via_fleet.ok) << line << " -> " << via_fleet.response;
    std::string perr;
    const auto request = service::parse_request(line, &perr);
    ASSERT_TRUE(request.has_value()) << perr;
    std::string direct = core.handle(*request, line, nullptr).response;
    if (direct.empty() || direct.back() != '\n') direct += '\n';
    EXPECT_EQ(via_fleet.response, direct) << line;
  }
}

TEST(Fleet, RepeatedRequestsAreByteIdenticalAcrossWorkers) {
  ASSERT_FALSE(serve_binary().empty());
  FleetConfig config = fast_config(2);
  RouterConfig router_config;
  router_config.failover_retries = 1;
  LiveFleet fleet(std::move(config), router_config);
  const std::string line =
      R"({"kind":"predict","prim":"CAS","threads":12,"work":50})";
  std::set<std::string> seen;
  for (int i = 0; i < 20; ++i) {
    const auto result = fleet.handle(line);
    ASSERT_TRUE(result.ok) << result.response;
    seen.insert(result.response);
  }
  EXPECT_EQ(seen.size(), 1u);
}

TEST(Fleet, SigkillMidLoadEveryRequestAnsweredAndWorkerRejoins) {
  ASSERT_FALSE(serve_binary().empty());
  FleetConfig config = fast_config(2);
  RouterConfig router_config;
  router_config.failover_retries = 1;
  router_config.request_timeout_ms = 5000;
  LiveFleet fleet(std::move(config), router_config);

  // Baseline bytes per request shape, before any fault.
  std::vector<std::string> lines;
  std::vector<std::string> baseline;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(
        R"({"kind":"predict","prim":"FAA","threads":8,"work":)" +
        std::to_string(10 * i) + "}");
    const auto r = fleet.handle(lines.back());
    ASSERT_TRUE(r.ok) << r.response;
    baseline.push_back(r.response);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> empty_responses{0};
  std::atomic<std::uint64_t> malformed{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < 4; ++t) {
    loaders.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = fleet.handle(lines[i++ % lines.size()]);
        if (r.response.empty()) {
          empty_responses.fetch_add(1);
        } else if (!r.ok &&
                   service::response_error_code(r.response).empty()) {
          // Errors must be *structured*: a code the client dispatches on.
          malformed.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }

  // SIGKILL each worker once, mid-load.
  for (std::size_t victim = 0; victim < 2; ++victim) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const auto status = fleet.supervisor.status();
    if (status[victim].pid > 0) ::kill(status[victim].pid, SIGKILL);
    EXPECT_TRUE(wait_until(
        [&] { return fleet.supervisor.workers_up() == 2; }, 10000))
        << "worker " << victim << " did not rejoin";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  for (auto& t : loaders) t.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(empty_responses.load(), 0u);
  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_GE(fleet.supervisor.total_restarts(), 2u);

  // Post-restart responses still match the pre-fault bytes exactly.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto r = fleet.handle(lines[i]);
    ASSERT_TRUE(r.ok) << r.response;
    EXPECT_EQ(r.response, baseline[i]) << lines[i];
  }
}

TEST(Fleet, SpawnDeathLoopOpensCircuitBreaker) {
  FleetConfig config = fast_config(1);
  config.worker_binary = "/bin/false";  // exits immediately, never serves
  config.circuit_failures = 3;
  config.restart_backoff_ms = 10;
  config.restart_backoff_max_ms = 20;
  config.start_grace_ms = 300;
  config.circuit_cooloff_ms = 60000;
  Supervisor supervisor(std::move(config));
  std::string error;
  ASSERT_TRUE(supervisor.start(&error)) << error;
  EXPECT_TRUE(wait_until(
      [&] {
        return supervisor.status()[0].state == WorkerState::kCircuitOpen;
      },
      10000));
  EXPECT_EQ(supervisor.workers_up(), 0u);
  supervisor.drain();
}

TEST(Fleet, DeadShardServesStaleFromRouterLru) {
  ASSERT_FALSE(serve_binary().empty());
  FleetConfig config = fast_config(1);
  config.restart_backoff_ms = 60000;  // stay down once killed
  RouterConfig router_config;
  router_config.failover_retries = 0;
  LiveFleet fleet(std::move(config), router_config);

  const std::string line =
      R"({"kind":"predict","prim":"CAS","threads":8,"id":"stale-1"})";
  const auto warm = fleet.handle(line);
  ASSERT_TRUE(warm.ok) << warm.response;

  const auto status = fleet.supervisor.status();
  ASSERT_GT(status[0].pid, 0);
  ::kill(status[0].pid, SIGKILL);
  ASSERT_TRUE(wait_until(
      [&] { return fleet.supervisor.workers_up() == 0; }, 10000));

  const auto stale = fleet.handle(line);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.response, warm.response);  // byte-identical stale serve

  // A request the router never saw cannot be served stale: structured
  // `unavailable`, not a hang or an empty line.
  const auto miss = fleet.handle(
      R"({"kind":"predict","prim":"SWP","threads":3,"id":"never-seen"})");
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(service::response_error_code(miss.response),
            service::errcode::kUnavailable);
}

TEST(Fleet, DeadFleetPromotesSimulateIntoSharedDiskCache) {
  ASSERT_FALSE(serve_binary().empty());
  FleetConfig config = fast_config(1);
  config.restart_backoff_ms = 60000;  // stay down once killed
  config.sweep_cache_dir = fresh_runtime_dir();
  const std::string cache_dir = config.sweep_cache_dir;
  RouterConfig router_config;
  router_config.failover_retries = 0;
  LiveFleet fleet(std::move(config), router_config);

  const auto status = fleet.supervisor.status();
  ASSERT_GT(status[0].pid, 0);
  ::kill(status[0].pid, SIGKILL);
  ASSERT_TRUE(wait_until(
      [&] { return fleet.supervisor.workers_up() == 0; }, 10000));

  // A simulate the fleet never served: no stale copy anywhere and every
  // worker down, so the front computes the point itself (promotion) instead
  // of answering `unavailable`.
  const std::string line =
      R"({"kind":"simulate","machine":"test","prim":"FAA","threads":2,"seed":11,"id":"promo-1"})";
  const auto promoted = fleet.handle(line);
  ASSERT_TRUE(promoted.ok) << promoted.response;
  EXPECT_EQ(fleet.router.promoted(), 1u);

  // The promotion published the shared disk entry under the exact key a
  // worker's own sweep engine would have used.
  std::string perr;
  const auto request = service::parse_request(line, &perr);
  ASSERT_TRUE(request.has_value()) << perr;
  const sim::MachineConfig mc = sim::preset_by_name(request->point.machine);
  const std::string key = bench::sweep_cache_key(
      bench::sim_backend_cache_identity(mc, bench::SimBackendOptions{}),
      service::simulate_workload(request->point),
      bench::point_seed(request->point.seed, 0));
  struct ::stat st {};
  EXPECT_EQ(::stat((cache_dir + "/" + key + ".json").c_str(), &st), 0)
      << "promotion did not write " << key << ".json";

  // A second worker sharing the cache dir gets the warm hit: a fresh
  // ServiceCore (exactly what a worker runs) answers byte-identically.
  service::ServiceConfig worker_cfg;
  worker_cfg.sim_cache_dir = cache_dir;
  worker_cfg.metrics = false;
  service::ServiceCore second_worker(worker_cfg);
  std::string direct = second_worker.handle(*request, line, nullptr).response;
  if (direct.empty() || direct.back() != '\n') direct += '\n';
  EXPECT_EQ(promoted.response, direct);

  // The promotion also seeded the router's stale LRU: repeats are memory
  // hits, not recomputes.
  const auto again = fleet.handle(line);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.response, promoted.response);
  EXPECT_EQ(fleet.router.promoted(), 1u);

  // Promotion is simulate-only: other kinds still degrade to `unavailable`.
  const auto miss = fleet.handle(
      R"({"kind":"predict","prim":"SWP","threads":3,"id":"no-promo"})");
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(service::response_error_code(miss.response),
            service::errcode::kUnavailable);
}

TEST(Fleet, DeadFleetPromotesUnderTheFleetCycleBudget) {
  // Workers that exit at once keep the fleet dark, so a simulate goes
  // straight to promotion. Under --max-point-cycles=100 it must answer what
  // a worker with that budget answers (a timeout) and publish nothing to
  // the shared disk tier for recovering workers to serve as a success.
  FleetConfig config = fast_config(1);
  config.worker_binary = "/bin/true";
  config.restart_backoff_ms = 60000;
  config.sweep_cache_dir = fresh_runtime_dir();
  config.max_point_cycles = 100;
  const std::string cache_dir = config.sweep_cache_dir;
  Supervisor supervisor(std::move(config));
  RouterConfig router_config;
  router_config.failover_retries = 0;
  Router router(supervisor, router_config);
  std::string error;
  ASSERT_TRUE(supervisor.start(&error)) << error;

  const std::string line =
      R"({"kind":"simulate","machine":"test","prim":"FAA","threads":2,"seed":11,"id":"budget-1"})";
  const auto request = service::parse_request(line, &error);
  ASSERT_TRUE(request.has_value()) << error;
  const service::HandleResult promoted = router.handle(*request, line, nullptr);
  EXPECT_EQ(router.promoted(), 1u);
  EXPECT_FALSE(promoted.ok);

  service::ServiceConfig worker_cfg;
  worker_cfg.max_point_cycles = 100;
  worker_cfg.metrics = false;
  service::ServiceCore worker(worker_cfg);
  std::string direct = worker.handle(*request, line, nullptr).response;
  if (direct.empty() || direct.back() != '\n') direct += '\n';
  EXPECT_EQ(promoted.response, direct);
  EXPECT_NE(promoted.response.find("simulation timeout: "), std::string::npos)
      << promoted.response;

  std::size_t disk_entries = 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(cache_dir)) {
    if (e.path().extension() == ".json") ++disk_entries;
  }
  EXPECT_EQ(disk_entries, 0u);
  supervisor.drain();
}

std::uint64_t sweep_results(const char* source) {
  return obs::metrics::default_registry()
      .counter("am_sweep_point_results_total",
               "Successful sweep-point results, by source",
               {{"source", source}})
      .value();
}

TEST(Fleet, DeadFleetServesAWorkerPublishedPointFromDisk) {
  ASSERT_FALSE(serve_binary().empty());
  FleetConfig config = fast_config(1);
  config.restart_backoff_ms = 60000;  // stay down once killed
  config.sweep_cache_dir = fresh_runtime_dir();
  RouterConfig router_config;
  router_config.failover_retries = 0;
  router_config.stale_capacity = 0;  // no memory tier: only disk can answer
  LiveFleet fleet(std::move(config), router_config);

  // The worker computes the point and publishes it to the shared directory.
  const std::string line =
      R"({"kind":"simulate","machine":"test","prim":"CAS","threads":2,"seed":13,"id":"disk-1"})";
  const auto served = fleet.handle(line);
  ASSERT_TRUE(served.ok) << served.response;
  EXPECT_EQ(fleet.router.forwarded(), 1u);

  const auto status = fleet.supervisor.status();
  ASSERT_GT(status[0].pid, 0);
  ::kill(status[0].pid, SIGKILL);
  ASSERT_TRUE(wait_until(
      [&] { return fleet.supervisor.workers_up() == 0; }, 10000));

  // The front reads the worker's entry back instead of running the point.
  const std::uint64_t cache_before = sweep_results("cache");
  const std::uint64_t executed_before = sweep_results("executed");
  const auto from_disk = fleet.handle(line);
  EXPECT_TRUE(from_disk.ok) << from_disk.response;
  EXPECT_EQ(from_disk.response, served.response);
  EXPECT_EQ(fleet.router.promoted(), 1u);
  EXPECT_EQ(fleet.router.stale_serves(), 0u);
  EXPECT_EQ(sweep_results("cache"), cache_before + 1);
  EXPECT_EQ(sweep_results("executed"), executed_before);
}

TEST(Fleet, ConcurrentPromotionsOfOnePointAgree) {
  // Workers that exit at once keep the fleet dark and no memory tier is
  // kept, so every request below is a promotion, all of them on one disk
  // key at once: each must answer what a worker answers, and the directory
  // must end up holding that one entry and no leftover temp file.
  FleetConfig config = fast_config(1);
  config.worker_binary = "/bin/true";
  config.restart_backoff_ms = 60000;
  config.sweep_cache_dir = fresh_runtime_dir();
  const std::string cache_dir = config.sweep_cache_dir;
  Supervisor supervisor(std::move(config));
  RouterConfig router_config;
  router_config.failover_retries = 0;
  router_config.stale_capacity = 0;
  Router router(supervisor, router_config);
  std::string error;
  ASSERT_TRUE(supervisor.start(&error)) << error;

  const std::string line =
      R"({"kind":"simulate","machine":"test","prim":"FAA","threads":2,"seed":17,"id":"race-1"})";
  const auto request = service::parse_request(line, &error);
  ASSERT_TRUE(request.has_value()) << error;
  service::ServiceConfig worker_cfg;
  worker_cfg.metrics = false;
  service::ServiceCore worker(worker_cfg);
  std::string expected = worker.handle(*request, line, nullptr).response;
  if (expected.empty() || expected.back() != '\n') expected += '\n';

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> mismatches{0};
  std::latch start(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      start.arrive_and_wait();  // the first wave all miss the disk at once
      for (int i = 0; i < kPerThread; ++i) {
        if (router.handle(*request, line, nullptr).response != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(router.promoted(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(router.unavailable(), 0u);

  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(cache_dir)) {
    if (e.is_regular_file()) files.push_back(e.path().filename().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_TRUE(files[0].ends_with(".json")) << files[0];
  supervisor.drain();
}

TEST(Fleet, RouterScrapeRendersItsAndItsSupervisorsBooks) {
  ASSERT_FALSE(serve_binary().empty());
  LiveFleet fleet(fast_config(1));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet.handle(R"({"kind":"predict","prim":"FAA","threads":4})")
                    .ok);
  }
  const auto status = fleet.supervisor.status();
  ASSERT_GT(status[0].pid, 0);
  ::kill(status[0].pid, SIGKILL);
  ASSERT_TRUE(wait_until(
      [&] {
        return fleet.supervisor.total_restarts() >= 1 &&
               fleet.supervisor.workers_up() == 1;
      },
      10000));

  std::string text;
  obs::metrics::PromWriter w(text);
  fleet.router.append_metrics(w);
  const auto samples = obs::metrics::parse_prometheus_text(text);
  EXPECT_EQ(obs::metrics::find_sample(samples, "am_fleet_forwarded_total"),
            static_cast<double>(fleet.router.forwarded()));
  EXPECT_EQ(obs::metrics::find_sample(samples, "am_fleet_restarts_total"),
            static_cast<double>(fleet.supervisor.total_restarts()));
  EXPECT_EQ(obs::metrics::find_sample(samples, "am_fleet_workers_up"), 1.0);
  // Only rungs and faults that can fire are rendered: no shed rung, no
  // dropped-connection or delayed-response fault.
  for (const auto& sample : samples) {
    for (const char* gone : {"_shed_", "_drops_", "_delays_"}) {
      EXPECT_EQ(sample.name.find(gone), std::string::npos) << sample.name;
    }
  }
}

TEST(Fleet, ChaosKillScheduleKeepsFleetServing) {
  ASSERT_FALSE(serve_binary().empty());
  static ChaosConfig chaos;
  chaos.kill_every_ms.store(200);
  FleetConfig config = fast_config(2);
  config.chaos = &chaos;
  RouterConfig router_config;
  router_config.failover_retries = 1;
  LiveFleet fleet(std::move(config), router_config);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1200);
  std::uint64_t answered = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto r = fleet.handle(
        R"({"kind":"predict","prim":"FAA","threads":8,"work":5})");
    ASSERT_FALSE(r.response.empty());
    if (!r.ok) {
      // Under chaos an answer may be a structured degradation; never junk.
      EXPECT_FALSE(service::response_error_code(r.response).empty())
          << r.response;
    }
    ++answered;
  }
  chaos.kill_every_ms.store(0);
  EXPECT_GT(answered, 0u);
  EXPECT_GE(fleet.supervisor.total_restarts(), 1u);
  // Once chaos stops, the fleet heals to full strength.
  EXPECT_TRUE(wait_until(
      [&] { return fleet.supervisor.workers_up() == 2; }, 10000));
}

}  // namespace
}  // namespace am::fleet
