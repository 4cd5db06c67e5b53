// Reply identity of simulate. One ServiceCore with no response cache serves
// every machine, sharing mode and primitive at two thread counts and three
// seeds, plus one point over a 100-cycle watchdog budget, and the
// concatenated replies are pinned by a digest. The same digest must come
// from a core that writes every point to a fresh disk tier (cold) and from
// a second core on that directory that reads every point back (warm): where
// a point's result comes from never moves a byte of its reply.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/sha256.hpp"
#include "obs/metrics.hpp"
#include "service/handlers.hpp"

namespace am::service {
namespace {

constexpr const char* kPinnedDigest =
    "3ee86a84d4fa6a9ff8a0dc68c4a3889fc061258221e7e743cdd590f415ab5fd7";

Request parse_or_die(const std::string& line) {
  std::string error;
  const auto r = parse_request(line, &error);
  EXPECT_TRUE(r.has_value()) << line << " -> " << error;
  return r.value_or(Request{});
}

/// 3 machines x 4 modes x 4 prims x threads {2, 8} x 3 seeds. The test
/// machine has 4 cores, so its 8-thread requests are error replies.
std::vector<Request> simulate_grid() {
  std::vector<Request> grid;
  for (const char* machine : {"xeon", "knl", "test"}) {
    for (const char* mode : {"shared", "private", "mixed", "zipf"}) {
      for (const char* prim : {"FAA", "CAS", "CASLOOP", "SWP"}) {
        for (const int threads : {2, 8}) {
          for (const char* seed : {"1", "7", "9007199254740992"}) {
            grid.push_back(parse_or_die(
                std::string(R"({"kind":"simulate","id":"x","machine":")") +
                machine + R"(","mode":")" + mode + R"(","prim":")" + prim +
                R"(","threads":)" + std::to_string(threads) +
                R"(,"seed":)" + seed + "}"));
          }
        }
      }
    }
  }
  return grid;
}

struct Served {
  std::string replies;
  std::size_t ok = 0;
  std::size_t errors = 0;
};

/// Serves the grid on one core and the over-budget point on a second, both
/// on @p disk_dir ("" = no disk tier).
Served serve_all(const std::string& disk_dir) {
  Served out;
  ServiceConfig config;
  config.cache_capacity = 0;
  config.metrics = false;
  config.sim_cache_dir = disk_dir;
  ServiceCore core(config);
  for (const Request& r : simulate_grid()) {
    const HandleResult result = core.handle(r);
    (result.ok ? out.ok : out.errors) += 1;
    out.replies += result.response;
  }
  config.max_point_cycles = 100;
  ServiceCore budgeted(config);
  const HandleResult timeout = budgeted.handle(parse_or_die(
      R"({"kind":"simulate","id":"b","machine":"xeon","prim":"CAS",)"
      R"("threads":8,"seed":3})"));
  EXPECT_FALSE(timeout.ok);
  EXPECT_NE(timeout.response.find("simulation timeout: "), std::string::npos)
      << timeout.response;
  out.replies += timeout.response;
  return out;
}

std::size_t disk_entries(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".json") ++n;
  }
  return n;
}

std::uint64_t executed_points() {
  return obs::metrics::default_registry()
      .counter("am_sweep_point_results_total",
               "Successful sweep-point results, by source",
               {{"source", "executed"}})
      .value();
}

TEST(SimulateReplies, GridMatchesPinnedBytes) {
  const Served served = serve_all("");
  EXPECT_EQ(served.ok, 240u);
  EXPECT_EQ(served.errors, 48u);  // 8 threads on the 4-core test machine
  EXPECT_EQ(sha256_hex(served.replies), kPinnedDigest);
}

TEST(SimulateReplies, ColdAndWarmDiskTiersServeThePinnedBytes) {
  const std::string dir = testing::TempDir() + "/am_simulate_identity_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  const Served cold = serve_all(dir);
  EXPECT_EQ(sha256_hex(cold.replies), kPinnedDigest);
  EXPECT_EQ(disk_entries(dir), cold.ok);  // every ok point written

  const std::uint64_t executed_before = executed_points();
  const Served warm = serve_all(dir);
  EXPECT_EQ(sha256_hex(warm.replies), kPinnedDigest);
  if (obs::metrics::enabled()) {
    EXPECT_EQ(executed_points(), executed_before);  // every point read
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace am::service
