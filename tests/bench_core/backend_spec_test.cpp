// The one backend-spec parser: every spec either names a machine exactly or
// is rejected, and the bench helpers derived from a parse agree on it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench_core/backend.hpp"
#include "bench_util.hpp"
#include "sim/config.hpp"

namespace am::bench {
namespace {

TEST(BackendSpec, AcceptsExactlyTheSpecsThatNameAMachine) {
  struct Case {
    const char* spec;
    bool hw;
    const char* preset;
    const char* machine;
    sim::MemoryModel model;
  };
  const Case accepted[] = {
      {"sim", false, "xeon", "xeon-e5-2x18", sim::MemoryModel::kSc},
      {"sim:knl", false, "knl", "knl-64", sim::MemoryModel::kSc},
      {"sim:e5", false, "e5", "xeon-e5-2x18", sim::MemoryModel::kSc},
      {"sim:knl:tso", false, "knl", "knl-64", sim::MemoryModel::kTso},
      {"hw", true, "", "", sim::MemoryModel::kSc},
  };
  for (const Case& c : accepted) {
    SCOPED_TRACE(c.spec);
    const BackendSpec spec = parse_backend_spec(c.spec);
    EXPECT_EQ(spec.hw, c.hw);
    EXPECT_EQ(spec.preset, c.preset);
    if (!c.hw) {
      EXPECT_EQ(spec.machine.name, c.machine);
      EXPECT_EQ(spec.machine.memory_model, c.model);
    }
  }
  for (const char* spec : {"sim:xoen", "sim:knl:tos", "sim:", "xeon"}) {
    EXPECT_THROW(parse_backend_spec(spec), std::invalid_argument) << spec;
    EXPECT_THROW(make_backend(spec), std::invalid_argument) << spec;
  }
}

TEST(BackendSpec, ModelAndBackendAgreeOnTheMachine) {
  const BackendSpec knl_tso = parse_backend_spec("sim:knl:tso");
  EXPECT_EQ(bench_util::params_for(knl_tso).cores, 64u);
  EXPECT_EQ(make_backend(knl_tso)->machine_name(), "knl-64");
  for (const char* spec : {"sim", "sim:xeon", "sim:knl", "sim:test:tso"}) {
    const BackendSpec parsed = parse_backend_spec(spec);
    EXPECT_EQ(bench_util::params_for(parsed).cores,
              make_backend(parsed)->max_threads())
        << spec;
  }
}

}  // namespace
}  // namespace am::bench
