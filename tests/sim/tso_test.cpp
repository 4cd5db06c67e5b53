// Unit tests of the TSO simulation mode: store-buffer forwarding and drain
// accounting, fence semantics and costs, config plumbing (fingerprint,
// parsing), and the guarantee that SC configurations are untouched by the
// new machinery (fields stay zero, fingerprints stay byte-identical).
#include <gtest/gtest.h>

#include "conformance/generator.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"

namespace am::sim {
namespace {

constexpr Cycles kWindow = Cycles{1} << 40;

IssueRequest store(LineId line, std::uint64_t v) {
  IssueRequest r;
  r.prim = Primitive::kStore;
  r.line = line;
  r.store_value = v;
  return r;
}

IssueRequest load(LineId line) {
  IssueRequest r;
  r.prim = Primitive::kLoad;
  r.line = line;
  return r;
}

IssueRequest fence() {
  IssueRequest r;
  r.prim = Primitive::kFence;
  return r;
}

RunStats run_ops(const MachineConfig& cfg,
                 conformance::GeneratedProgram program,
                 std::vector<std::vector<OpResult>>* results = nullptr) {
  Machine machine(cfg, /*seed=*/1);
  conformance::MultiScriptProgram script(program);
  const RunStats stats =
      machine.run(script, program.cores(), /*warmup=*/0, kWindow);
  if (results != nullptr) *results = script.results();
  return stats;
}

TEST(MemoryModelConfig, ParseAndPrint) {
  EXPECT_STREQ(to_string(MemoryModel::kSc), "sc");
  EXPECT_STREQ(to_string(MemoryModel::kTso), "tso");
  EXPECT_EQ(parse_memory_model("sc"), MemoryModel::kSc);
  EXPECT_EQ(parse_memory_model("tso"), MemoryModel::kTso);
  EXPECT_EQ(parse_memory_model("x86-tso"), MemoryModel::kTso);
  EXPECT_FALSE(parse_memory_model("weak").has_value());
}

TEST(MemoryModelConfig, ScFingerprintHasNoTsoSection) {
  // Byte-identity anchor: default (SC) fingerprints — the keys of golden
  // digests, sweep caches and service caches — must not change because the
  // TSO fields exist.
  for (const auto& cfg : {test_machine(4), xeon_e5_2x18(), knl_64()}) {
    EXPECT_EQ(cfg.memory_model, MemoryModel::kSc);
    EXPECT_EQ(cfg.fingerprint().find(";mm="), std::string::npos)
        << cfg.fingerprint();
  }
}

TEST(MemoryModelConfig, TsoFingerprintPinsModelFenceAndBufferDepth) {
  MachineConfig cfg = test_machine(4);
  const std::string sc_fp = cfg.fingerprint();
  cfg.memory_model = MemoryModel::kTso;
  const std::string tso_fp = cfg.fingerprint();
  EXPECT_NE(sc_fp, tso_fp);
  EXPECT_NE(tso_fp.find(";mm=1"), std::string::npos) << tso_fp;
  EXPECT_NE(tso_fp.find(";fence="), std::string::npos);
  EXPECT_NE(tso_fp.find(";sb="), std::string::npos);
  // Each TSO knob must move the fingerprint: a sweep cache keyed on it can
  // never serve one model's rows to another configuration.
  MachineConfig deeper = cfg;
  deeper.store_buffer_entries = 16;
  EXPECT_NE(deeper.fingerprint(), tso_fp);
  MachineConfig pricier = cfg;
  pricier.fence_cost = 99;
  EXPECT_NE(pricier.fingerprint(), tso_fp);
  MachineConfig joules = cfg;
  joules.energy.fence_nj = 7.5;
  EXPECT_NE(joules.fingerprint(), tso_fp);
}

TEST(MemoryModelConfig, ExecCostOfFenceUsesFenceCost) {
  MachineConfig cfg = test_machine(2);
  cfg.fence_cost = 57;
  EXPECT_EQ(cfg.exec_cost_of(Primitive::kFence), 57u);
  EXPECT_EQ(cfg.exec_cost_of(Primitive::kLoad),
            cfg.exec_cost[static_cast<std::size_t>(Primitive::kLoad)]);
}

TEST(Tso, StoreForwardingAndDrainAccounting) {
  // One core: STORE 5; STORE 9; LOAD — the load must forward the *newest*
  // buffered store, both stores must eventually drain, and the drained
  // value must reach the directory.
  conformance::GeneratedProgram p;
  p.per_core = {{store(0, 5), store(0, 9), load(0)}};

  MachineConfig cfg = test_machine(2);
  cfg.memory_model = MemoryModel::kTso;
  Machine machine(cfg, 1);
  conformance::MultiScriptProgram script(p);
  const RunStats stats = machine.run(script, 1, 0, kWindow);

  ASSERT_EQ(script.results()[0].size(), 3u);
  EXPECT_EQ(script.results()[0][2].observed, 9u);
  EXPECT_EQ(stats.store_buffer_drains, 2u);
  EXPECT_EQ(stats.fences, 0u);
  EXPECT_EQ(machine.line_value(0), 9u);
  EXPECT_EQ(machine.store_buffer_depth(0), 0u);  // fully drained at the end
}

TEST(Tso, FenceDrainsAndIsAccounted) {
  conformance::GeneratedProgram p;
  p.per_core = {{store(0, 7), fence(), load(0)}};
  MachineConfig cfg = test_machine(2);
  cfg.memory_model = MemoryModel::kTso;
  const RunStats stats = run_ops(cfg, p);
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.store_buffer_drains, 1u);
  EXPECT_GT(stats.energy.fence_j, 0.0);
}

TEST(Tso, FenceCostIsPaid) {
  // The same program with a pricier fence must take at least the cost
  // difference longer.
  conformance::GeneratedProgram p;
  p.per_core = {{fence(), fence(), fence(), fence()}};
  MachineConfig cheap = test_machine(2);
  cheap.memory_model = MemoryModel::kTso;
  cheap.fence_cost = 1;
  MachineConfig dear = cheap;
  dear.fence_cost = 1001;
  const RunStats fast = run_ops(cheap, p);
  const RunStats slow = run_ops(dear, p);
  EXPECT_GE(slow.threads[0].exec_cycles, fast.threads[0].exec_cycles + 4000u);
}

TEST(Tso, FullStoreBufferForcesMidStreamDrain) {
  MachineConfig cfg = test_machine(2);
  cfg.memory_model = MemoryModel::kTso;
  cfg.store_buffer_entries = 2;
  conformance::GeneratedProgram p;
  p.per_core.resize(1);
  for (std::uint64_t i = 0; i < 7; ++i) {
    p.per_core[0].push_back(store(static_cast<LineId>(i), i + 1));
  }
  Machine machine(cfg, 1);
  conformance::MultiScriptProgram script(p);
  const RunStats stats = machine.run(script, 1, 0, kWindow);
  EXPECT_EQ(stats.store_buffer_drains, 7u);
  for (std::uint64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(machine.line_value(static_cast<LineId>(i)), i + 1);
  }
}

TEST(Tso, RmwDrainsTheBufferFirst) {
  // A buffered store to the same line must be globally visible before an
  // atomic RMW executes: FAA after STORE 10 must observe 10.
  conformance::GeneratedProgram p;
  IssueRequest faa;
  faa.prim = Primitive::kFaa;
  faa.line = 0;
  p.per_core = {{store(0, 10), faa}};
  MachineConfig cfg = test_machine(2);
  cfg.memory_model = MemoryModel::kTso;
  std::vector<std::vector<OpResult>> results;
  const RunStats stats = run_ops(cfg, p, &results);
  ASSERT_EQ(results[0].size(), 2u);
  EXPECT_EQ(results[0][1].observed, 10u);
  EXPECT_EQ(stats.store_buffer_drains, 1u);
}

TEST(Tso, ScRunsKeepTsoCountersAtZero) {
  conformance::GenConfig gen;
  gen.cores = 2;
  gen.ops_per_core = 24;
  const conformance::GeneratedProgram p = conformance::generate(3, gen);
  const RunStats stats = run_ops(test_machine(2), p);
  EXPECT_EQ(stats.store_buffer_drains, 0u);
  EXPECT_EQ(stats.fences, 0u);
  EXPECT_EQ(stats.energy.fence_j, 0.0);
}

}  // namespace
}  // namespace am::sim
