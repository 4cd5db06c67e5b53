// Reply identity of run_guest. One ServiceCore with no response cache serves
// every corpus program on every machine, hart count, memory model and seed of
// a small grid, and the concatenated replies are pinned by a digest recorded
// from the interpreter that executed every pass of every spin loop. Skipping
// repeated passes (docs/guest.md, "Spin fairness / livelock") must not move a
// byte of any reply: not a count, not a cycle, not an error message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/base64.hpp"
#include "common/sha256.hpp"
#include "guest/corpus.hpp"
#include "service/handlers.hpp"

namespace am::service {
namespace {

Request parse_or_die(const std::string& line) {
  std::string error;
  const auto r = parse_request(line, &error);
  EXPECT_TRUE(r.has_value()) << error;
  return r.value_or(Request{});
}

/// 4 programs x 3 machines x harts {1, 2, 3, 4, 8} x {sc, tso} x 3 seeds.
/// The test machine has 4 cores, so its 8-hart requests are bad_harts
/// guest_error envelopes.
std::vector<Request> guest_grid() {
  std::vector<Request> grid;
  for (const std::string& name : am::guest::corpus::names()) {
    const std::vector<std::uint8_t> elf = am::guest::corpus::build(name);
    const std::string b64 = base64_encode(std::string_view(
        reinterpret_cast<const char*>(elf.data()), elf.size()));
    for (const char* machine : {"xeon", "knl", "test"}) {
      for (const int harts : {1, 2, 3, 4, 8}) {
        for (const char* model : {"sc", "tso"}) {
          for (const char* seed : {"1", "7", "1234567"}) {
            grid.push_back(parse_or_die(
                std::string(R"({"kind":"run_guest","id":"x","machine":")") +
                machine + R"(","memory_model":")" + model +
                R"(","harts":)" + std::to_string(harts) + R"(,"seed":)" +
                seed + R"(,"elf":")" + b64 + "\"}"));
          }
        }
      }
    }
  }
  return grid;
}

TEST(GuestReplies, CorpusGridMatchesPinnedBytes) {
  ServiceConfig config;
  config.cache_capacity = 0;
  config.metrics = false;
  ServiceCore core(config);

  const std::vector<Request> grid = guest_grid();
  ASSERT_EQ(grid.size(), 360u);
  std::string all;
  std::size_t ok = 0;
  std::size_t bad_harts = 0;
  for (const Request& r : grid) {
    const HandleResult result = core.handle(r);
    if (result.ok) {
      ++ok;
    } else if (result.response.find("bad_harts") != std::string::npos) {
      ++bad_harts;
    } else {
      ADD_FAILURE() << "unexpected error reply: " << result.response;
    }
    all += result.response;
  }
  EXPECT_EQ(ok, 336u);
  EXPECT_EQ(bad_harts, 24u);
  EXPECT_EQ(sha256_hex(all),
            "83c78a5e28f5925844a8ea4ad6caedd7ee219b301c44e20307ddd3829c3a24ad");
}

}  // namespace
}  // namespace am::service
