#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "atomics/primitives.hpp"

namespace am {
namespace {

TEST(Primitives, Names) {
  EXPECT_STREQ(to_string(Primitive::kFaa), "FAA");
  EXPECT_STREQ(to_string(Primitive::kCasLoop), "CASLOOP");
  EXPECT_EQ(parse_primitive("CAS"), Primitive::kCas);
  EXPECT_EQ(parse_primitive("SWP"), Primitive::kSwap);
  EXPECT_EQ(parse_primitive("bogus"), std::nullopt);
  EXPECT_EQ(all_primitives().size(), 7u);
}

TEST(Primitives, Classification) {
  EXPECT_FALSE(needs_exclusive(Primitive::kLoad));
  EXPECT_TRUE(needs_exclusive(Primitive::kStore));
  EXPECT_TRUE(needs_exclusive(Primitive::kCas));
}

TEST(Execute, LoadObservesValue) {
  std::atomic<std::uint64_t> cell{17};
  OpContext ctx;
  const OpResult r = execute(Primitive::kLoad, cell, ctx);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.observed, 17u);
  EXPECT_EQ(ctx.expected, 17u);  // load refreshes the CAS expectation
}

TEST(Execute, StoreWritesContextValue) {
  std::atomic<std::uint64_t> cell{0};
  OpContext ctx;
  ctx.store_value = 99;
  execute(Primitive::kStore, cell, ctx);
  EXPECT_EQ(cell.load(), 99u);
}

TEST(Execute, SwapReturnsOld) {
  std::atomic<std::uint64_t> cell{5};
  OpContext ctx;
  ctx.store_value = 11;
  const OpResult r = execute(Primitive::kSwap, cell, ctx);
  EXPECT_EQ(r.observed, 5u);
  EXPECT_EQ(cell.load(), 11u);
}

TEST(Execute, TasSemantics) {
  std::atomic<std::uint64_t> cell{0};
  OpContext ctx;
  const OpResult first = execute(Primitive::kTas, cell, ctx);
  EXPECT_TRUE(first.success);
  EXPECT_EQ(first.observed, 0u);
  const OpResult second = execute(Primitive::kTas, cell, ctx);
  EXPECT_FALSE(second.success);
  EXPECT_EQ(second.observed, 1u);
  EXPECT_EQ(cell.load(), 1u);
}

TEST(Execute, FaaIncrements) {
  std::atomic<std::uint64_t> cell{10};
  OpContext ctx;
  const OpResult r = execute(Primitive::kFaa, cell, ctx);
  EXPECT_EQ(r.observed, 10u);
  EXPECT_EQ(cell.load(), 11u);
  EXPECT_EQ(ctx.expected, 11u);
}

TEST(Execute, CasSucceedsWithFreshExpectation) {
  std::atomic<std::uint64_t> cell{0};
  OpContext ctx;  // expected defaults to 0 == cell
  const OpResult r = execute(Primitive::kCas, cell, ctx);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(cell.load(), 1u);
  EXPECT_EQ(ctx.expected, 1u);
}

TEST(Execute, CasFailureRefreshesExpectation) {
  std::atomic<std::uint64_t> cell{5};
  OpContext ctx;  // expected 0 != 5
  const OpResult r = execute(Primitive::kCas, cell, ctx);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(cell.load(), 5u);         // failed CAS writes nothing
  EXPECT_EQ(ctx.expected, 5u);        // but refreshes the expectation
  const OpResult retry = execute(Primitive::kCas, cell, ctx);
  EXPECT_TRUE(retry.success);
  EXPECT_EQ(cell.load(), 6u);
}

TEST(Execute, CasDesiredOverride) {
  std::atomic<std::uint64_t> cell{3};
  OpContext ctx;
  ctx.expected = 3;
  ctx.cas_desired = 0;  // pointer-style: swing 3 -> 0
  const OpResult r = execute(Primitive::kCas, cell, ctx);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(cell.load(), 0u);
}

TEST(Execute, CasLoopAlwaysCompletes) {
  std::atomic<std::uint64_t> cell{41};
  OpContext ctx;
  const OpResult r = execute(Primitive::kCasLoop, cell, ctx);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.observed, 41u);
  EXPECT_EQ(cell.load(), 42u);
  EXPECT_GE(r.attempts, 1u);
}

TEST(ExecuteConcurrent, FaaCountsExactly) {
  // Correctness of the primitive layer under real concurrency: N threads x
  // K increments leave exactly N*K on the cell.
  constexpr int kThreads = 4;
  constexpr int kIters = 10'000;
  std::atomic<std::uint64_t> cell{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cell] {
      OpContext ctx;
      for (int i = 0; i < kIters; ++i) execute(Primitive::kFaa, cell, ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cell.load(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ExecuteConcurrent, CasLoopCountsExactly) {
  constexpr int kThreads = 4;
  constexpr int kIters = 5'000;
  std::atomic<std::uint64_t> cell{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cell] {
      OpContext ctx;
      for (int i = 0; i < kIters; ++i) execute(Primitive::kCasLoop, cell, ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cell.load(), static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace am
