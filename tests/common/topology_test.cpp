#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/topology.hpp"

namespace am {
namespace {

TEST(Synthetic, ShapeAndCounts) {
  const Topology t = Topology::synthetic(2, 4, 2);
  EXPECT_EQ(t.logical_cpu_count(), 16u);
  EXPECT_EQ(t.package_count(), 2u);
  EXPECT_EQ(t.core_count(), 8u);
}

TEST(Synthetic, OsIdsAreUnique) {
  const Topology t = Topology::synthetic(2, 8, 2);
  std::set<int> ids;
  for (const auto& c : t.cpus()) ids.insert(c.os_id);
  EXPECT_EQ(ids.size(), t.logical_cpu_count());
}

TEST(PinSequence, CompactFillsSocketZeroFirst) {
  const Topology t = Topology::synthetic(2, 4, 2);
  const auto seq = t.pin_sequence(PinOrder::kCompact);
  ASSERT_EQ(seq.size(), 16u);
  // The first 4 placements land on package 0, the next 4 on package 1.
  for (int i = 0; i < 4; ++i) {
    const auto& cpu = t.cpus()[static_cast<std::size_t>(seq[i])];
    EXPECT_EQ(cpu.package, 0) << "slot " << i;
    EXPECT_EQ(cpu.smt, 0);
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(t.cpus()[static_cast<std::size_t>(seq[i])].package, 1);
  }
}

TEST(PinSequence, ScatterAlternatesSockets) {
  const Topology t = Topology::synthetic(2, 4, 1);
  const auto seq = t.pin_sequence(PinOrder::kScatter);
  ASSERT_EQ(seq.size(), 8u);
  for (int i = 0; i + 1 < 8; i += 2) {
    const int p0 = t.cpus()[static_cast<std::size_t>(seq[i])].package;
    const int p1 = t.cpus()[static_cast<std::size_t>(seq[i + 1])].package;
    EXPECT_NE(p0, p1) << "slots " << i << "," << i + 1;
  }
}

TEST(PinSequence, IsAlwaysAPermutation) {
  const Topology t = Topology::synthetic(2, 3, 2);
  for (PinOrder o : {PinOrder::kCompact, PinOrder::kScatter}) {
    auto seq = t.pin_sequence(o);
    std::sort(seq.begin(), seq.end());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i], static_cast<int>(i)) << to_string(o);
    }
  }
}

TEST(Discover, ReturnsAtLeastOneCpu) {
  const Topology t = Topology::discover();
  EXPECT_GE(t.logical_cpu_count(), 1u);
  EXPECT_FALSE(t.describe().empty());
}

}  // namespace
}  // namespace am
