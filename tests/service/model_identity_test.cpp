// Reply identity of the model-backed kinds (predict, advise) under
// concurrency. One ServiceCore answers a grid of shapes serially; a second
// core answers the same grid from four threads racing on it. Every
// concurrent reply must equal its serial reply byte for byte, and the serial
// replies are pinned by a digest recorded from the original per-request
// model, so sharing one model per preset cannot move a byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "atomics/primitives.hpp"
#include "common/sha256.hpp"
#include "service/handlers.hpp"
#include "sim/config.hpp"

namespace am::service {
namespace {

Request parse_or_die(const std::string& line) {
  std::string error;
  const auto r = parse_request(line, &error);
  EXPECT_TRUE(r.has_value()) << line << " -> " << error;
  return r.value_or(Request{});
}

/// Every machine x thread count 1..cores+1 (the last one is a "threads
/// exceeds" error reply) x {each mode x primitive x work, each advise
/// target}. Shapes sharing a thread count are adjacent, so threads striding
/// over the grid race on the same hand-off entry.
std::vector<Request> model_grid() {
  std::vector<Request> grid;
  for (const std::string machine : {"xeon", "knl", "test"}) {
    const std::uint32_t cores = sim::preset_by_name(machine).core_count();
    for (std::uint32_t t = 1; t <= cores + 1; ++t) {
      const std::string head = R"({"machine":")" + machine +
                               R"(","threads":)" + std::to_string(t);
      for (const char* mode : {"shared", "private", "mixed", "zipf"}) {
        for (const Primitive prim : all_primitives()) {
          for (const char* work : {"0", "150", "5000"}) {
            grid.push_back(parse_or_die(
                head + R"(,"kind":"predict","mode":")" + mode +
                R"(","prim":")" + to_string(prim) + R"(","work":)" + work +
                "}"));
          }
        }
      }
      grid.push_back(parse_or_die(
          head + R"(,"kind":"advise","target":"counter","work":100})"));
      grid.push_back(parse_or_die(
          head +
          R"(,"kind":"advise","target":"lock","critical":100,"outside":200})"));
      grid.push_back(
          parse_or_die(head + R"(,"kind":"advise","target":"backoff"})"));
    }
  }
  return grid;
}

/// No response cache: every request reaches the model.
ServiceConfig uncached() {
  ServiceConfig config;
  config.cache_capacity = 0;
  config.metrics = false;
  return config;
}

TEST(ModelReplies, ConcurrentRepliesMatchSerialBytes) {
  const std::vector<Request> grid = model_grid();

  ServiceCore serial_core(uncached());
  std::vector<std::string> serial(grid.size());
  std::string all;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    serial[i] = serial_core.handle(grid[i]).response;
    all += serial[i];
  }
  EXPECT_EQ(grid.size(), 9309u);
  EXPECT_EQ(sha256_hex(all),
            "78cef7388094e50677c7eb80c139840285faf8bad9a6c0013deffef3361deab5");

  // A fresh core, so the racing threads also race to fill its model caches.
  ServiceCore shared_core(uncached());
  constexpr std::size_t kThreads = 4;
  std::vector<std::string> concurrent(grid.size());
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < kThreads; ++k) {
    workers.emplace_back([&, k] {
      for (std::size_t i = k; i < grid.size(); i += kThreads) {
        concurrent[i] = shared_core.handle(grid[i]).response;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (concurrent[i] != serial[i]) {
      ++mismatches;
      ADD_FAILURE() << "reply " << i << " differs:\n  serial:     "
                    << serial[i] << "  concurrent: " << concurrent[i];
      if (mismatches >= 5) break;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace am::service
