#include <gtest/gtest.h>

#include "common/affinity.hpp"
#include "common/cacheline.hpp"
#include "common/cpu.hpp"

namespace am {
namespace {

TEST(Tsc, Monotonic) {
  const auto a = rdtscp();
  const auto b = rdtscp();
  EXPECT_GE(b, a);
}

TEST(Tsc, FrequencyPlausible) {
  const double hz = tsc_frequency_hz();
  // Anything between 100 MHz and 10 GHz is a plausible TSC rate.
  EXPECT_GT(hz, 1e8);
  EXPECT_LT(hz, 1e10);
  // Cached: second call returns the identical value.
  EXPECT_DOUBLE_EQ(hz, tsc_frequency_hz());
}

TEST(Cacheline, PaddingGeometry) {
  EXPECT_EQ(round_up_to_line(0), 0u);
  EXPECT_EQ(round_up_to_line(1), kCacheLineSize);
  EXPECT_EQ(round_up_to_line(64), 64u);
  EXPECT_EQ(round_up_to_line(65), 128u);
  Padded<int> p(7);
  EXPECT_EQ(*p, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&p) % kNoFalseSharingAlign, 0u);
}

TEST(Affinity, PinToCpuZeroSucceedsOnLinux) {
#ifdef __linux__
  EXPECT_TRUE(pin_current_thread(0));
  EXPECT_EQ(current_cpu(), 0);
  EXPECT_TRUE(unpin_current_thread());
#else
  GTEST_SKIP() << "affinity is Linux-only";
#endif
}

TEST(Affinity, RejectsInvalidCpu) {
  EXPECT_FALSE(pin_current_thread(-1));
  EXPECT_FALSE(pin_current_thread(1 << 20));
}

TEST(DoNotOptimize, CompilesAndRuns) {
  int x = 42;
  do_not_optimize(x);
  compiler_barrier();
  cpu_relax();
  SUCCEED();
}

}  // namespace
}  // namespace am
