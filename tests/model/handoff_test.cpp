#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/sha256.hpp"
#include "common/stats.hpp"
#include "model/handoff.hpp"
#include "sim/config.hpp"

namespace am::model {
namespace {

/// Appends the IEEE-754 bit pattern of every field of @p e, little-endian,
/// so a digest over the bytes pins the estimate bit for bit.
void append_bits(std::string& out, const HandoffEstimate& e) {
  auto put = [&out](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }
  };
  put(e.mean_transfer_cycles);
  put(e.mean_hops);
  put(e.far_fraction);
  for (const double s : e.grant_shares) put(s);
}

TEST(RoundRobin, UniformMachineMeanIsTheLatency) {
  const ModelParams p = ModelParams::from_machine(sim::test_machine(4, 100));
  const HandoffEstimate e = round_robin_handoff(p, 4);
  EXPECT_DOUBLE_EQ(e.mean_transfer_cycles, 100.0);
  EXPECT_DOUBLE_EQ(e.far_fraction, 0.0);
  ASSERT_EQ(e.grant_shares.size(), 4u);
  EXPECT_DOUBLE_EQ(e.grant_shares[0], 0.25);
}

TEST(RoundRobin, SingleCoreNeverTransfers) {
  const ModelParams p = ModelParams::from_machine(sim::test_machine(4, 100));
  const HandoffEstimate e = round_robin_handoff(p, 1);
  EXPECT_DOUBLE_EQ(e.mean_transfer_cycles, 0.0);
}

TEST(RoundRobin, TwoSocketMixture) {
  // Compact order on two sockets: the rotation crosses the socket boundary
  // exactly twice per cycle once both sockets participate.
  sim::MachineConfig cfg = sim::xeon_e5_2x18();
  cfg.arbitration = sim::Arbitration::kFifo;
  const ModelParams p = ModelParams::from_machine(cfg);

  const HandoffEstimate within = round_robin_handoff(p, 18);
  EXPECT_DOUBLE_EQ(within.mean_transfer_cycles, 70.0);
  EXPECT_DOUBLE_EQ(within.far_fraction, 0.0);

  const HandoffEstimate both = round_robin_handoff(p, 36);
  EXPECT_DOUBLE_EQ(both.far_fraction, 2.0 / 36.0);
  EXPECT_DOUBLE_EQ(both.mean_transfer_cycles,
                   (34.0 * 70.0 + 2.0 * 180.0) / 36.0);
}

TEST(TokenPassing, FifoMatchesClosedForm) {
  sim::MachineConfig cfg = sim::xeon_e5_2x18();
  cfg.arbitration = sim::Arbitration::kFifo;
  const ModelParams p = ModelParams::from_machine(cfg);
  const HandoffEstimate closed = round_robin_handoff(p, 24);
  const HandoffEstimate sim = simulate_handoff(p, 24, 25.0, 24 * 500);
  EXPECT_NEAR(sim.mean_transfer_cycles, closed.mean_transfer_cycles, 1.0);
  EXPECT_NEAR(jain_fairness(sim.grant_shares), 1.0, 0.001);
}

TEST(TokenPassing, ProximityBiasKeepsLineNearOwner) {
  const ModelParams p = ModelParams::from_machine(sim::xeon_e5_2x18());
  const HandoffEstimate e = simulate_handoff(p, 36, 25.0, 36 * 500);
  // Biased arbitration crosses sockets less often than round robin would
  // given random placement, and shares are visibly uneven.
  EXPECT_LT(jain_fairness(e.grant_shares), 0.999);
  EXPECT_GT(e.mean_transfer_cycles, 0.0);
}

TEST(TokenPassing, SharesSumToOne) {
  const ModelParams p = ModelParams::from_machine(sim::knl_64());
  const HandoffEstimate e = simulate_handoff(p, 32, 30.0, 32 * 400);
  double sum = 0.0;
  for (double s : e.grant_shares) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// Pins the token-passing kernel at the default 20,000 steps: both presets at
// every core count, plus the FIFO and nearest-first policies on the Xeon
// fabric. Any change to the step loop that moves a single output bit fails
// here; the digest was recorded from the original per-step loop.
TEST(TokenPassing, GoldenDigestAcrossPresetsAndPolicies) {
  std::string bytes;
  for (const sim::MachineConfig& cfg : {sim::xeon_e5_2x18(), sim::knl_64()}) {
    const ModelParams p = ModelParams::from_machine(cfg);
    const double hold = p.local_op_cycles(Primitive::kFaa);
    for (std::uint32_t n = 1; n <= p.cores; ++n) {
      append_bits(bytes, simulate_handoff(p, n, hold));
    }
  }
  for (const sim::Arbitration arb :
       {sim::Arbitration::kFifo, sim::Arbitration::kNearestFirst}) {
    sim::MachineConfig cfg = sim::xeon_e5_2x18();
    cfg.arbitration = arb;
    const ModelParams p = ModelParams::from_machine(cfg);
    const double hold = p.local_op_cycles(Primitive::kFaa);
    for (const std::uint32_t n : {2u, 17u, 36u}) {
      append_bits(bytes, simulate_handoff(p, n, hold));
    }
  }
  EXPECT_EQ(sha256_hex(bytes),
            "2f1c79838aae662e3df838915580931c1537e63b6cfe7ac37f929ff7dccde5fc");
}

TEST(TokenPassing, RejectsBadCoreCount) {
  const ModelParams p = ModelParams::from_machine(sim::test_machine(4));
  EXPECT_THROW(simulate_handoff(p, 0, 10.0), std::invalid_argument);
  EXPECT_THROW(simulate_handoff(p, 5, 10.0), std::invalid_argument);
  // The step loop indexes the tables unchecked, so a table that does not
  // cover cores x cores is refused up front.
  ModelParams short_table = p;
  short_table.distance.pop_back();
  EXPECT_THROW(simulate_handoff(short_table, 4, 10.0), std::invalid_argument);
}

TEST(Dispatch, EstimateUsesClosedFormForFifo) {
  sim::MachineConfig cfg = sim::test_machine(8, 50);
  const ModelParams p = ModelParams::from_machine(cfg);
  const HandoffEstimate e = estimate_handoff(p, 8, 20.0);
  EXPECT_DOUBLE_EQ(e.mean_transfer_cycles, 50.0);
}

}  // namespace
}  // namespace am::model
