#include <gtest/gtest.h>

#include "sim/config.hpp"

namespace am::sim {
namespace {

TEST(Presets, XeonShape) {
  const MachineConfig c = xeon_e5_2x18();
  EXPECT_EQ(c.core_count(), 36u);
  EXPECT_EQ(c.interconnect, InterconnectKind::kTwoSocket);
  EXPECT_LT(c.same_socket_xfer, c.cross_socket_xfer);
  const auto ic = c.make_interconnect();
  ASSERT_NE(ic, nullptr);
  EXPECT_EQ(ic->core_count(), 36u);
}

TEST(Presets, KnlShape) {
  const MachineConfig c = knl_64();
  EXPECT_EQ(c.core_count(), 64u);
  EXPECT_EQ(c.interconnect, InterconnectKind::kMesh);
  const auto ic = c.make_interconnect();
  ASSERT_NE(ic, nullptr);
  EXPECT_EQ(ic->core_count(), 64u);
  // KNL runs slower and pays more per RMW than the Xeon.
  EXPECT_LT(c.freq_ghz, xeon_e5_2x18().freq_ghz);
  EXPECT_GT(c.exec_cost_of(Primitive::kFaa),
            xeon_e5_2x18().exec_cost_of(Primitive::kFaa));
}

TEST(Presets, LookupByName) {
  EXPECT_EQ(preset_by_name("xeon").name, "xeon-e5-2x18");
  EXPECT_EQ(preset_by_name("e5").name, "xeon-e5-2x18");
  EXPECT_EQ(preset_by_name("knl").name, "knl-64");
  EXPECT_EQ(preset_by_name("phi").name, "knl-64");
  EXPECT_EQ(preset_by_name("test").name, "test-uniform");
  EXPECT_THROW(preset_by_name("nope"), std::invalid_argument);
}

TEST(Presets, ExecCostsOrdering) {
  // Plain accesses are cheap; lock-prefixed RMWs cost tens of cycles; CAS
  // carries the compare overhead on top.
  for (const MachineConfig& c : {xeon_e5_2x18(), knl_64()}) {
    EXPECT_LT(c.exec_cost_of(Primitive::kLoad),
              c.exec_cost_of(Primitive::kFaa));
    EXPECT_LE(c.exec_cost_of(Primitive::kFaa),
              c.exec_cost_of(Primitive::kCas));
  }
}

TEST(TestMachine, RoundNumbers) {
  const MachineConfig c = test_machine(4, 100, 4, 200);
  EXPECT_EQ(c.core_count(), 4u);
  EXPECT_EQ(c.uniform_xfer, 100u);
  EXPECT_EQ(c.l1_hit, 4u);
  EXPECT_EQ(c.memory_fill, 200u);
  EXPECT_EQ(c.arbitration, Arbitration::kFifo);
}

}  // namespace
}  // namespace am::sim
