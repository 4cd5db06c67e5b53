#include <gtest/gtest.h>

#include <sstream>

#include "bench_core/report.hpp"
#include "bench_core/sim_backend.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "sim/config.hpp"

namespace am::bench {
namespace {

/// Runs one instrumented high-contention workload and returns the parsed
/// report document.
JsonValue make_report(std::uint32_t threads, Primitive prim) {
  clear_run_log();
  SimBackend backend(sim::test_machine(4));
  backend.set_line_profiling(true);
  backend.set_epoch_cycles(backend.options().measure_cycles / 8);
  WorkloadConfig w;
  w.mode = WorkloadMode::kHighContention;
  w.prim = prim;
  w.threads = threads;
  backend.run(w);

  Table table({"threads", "ops"});
  table.add_row({"4", "1234"});
  ReportMeta meta;
  meta.bench = "report_test";
  meta.title = "round trip";
  meta.backend = "sim:test";
  meta.machine = backend.machine_name();
  meta.command = "report_test --backend sim:test";
  meta.wall_time_s = 0.25;

  std::ostringstream os;
  write_run_report(os, meta, &table, run_log());
  std::string error;
  auto doc = JsonValue::parse(os.str(), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.value_or(JsonValue{});
}

TEST(RunLog, RecordsEveryRunThroughTheSeam) {
  clear_run_log();
  SimBackend backend(sim::test_machine(4));
  WorkloadConfig w;
  w.prim = Primitive::kFaa;
  w.threads = 2;
  backend.run(w);
  w.threads = 4;
  backend.run(w);
  ASSERT_EQ(run_log().size(), 2u);
  EXPECT_EQ(run_log()[0].workload.threads, 2u);
  EXPECT_EQ(run_log()[1].workload.threads, 4u);
  EXPECT_EQ(run_log()[1].run.threads.size(), 4u);
  clear_run_log();
  EXPECT_TRUE(run_log().empty());
}

TEST(RunReport, RoundTripsMetaTableAndRuns) {
  const JsonValue doc = make_report(4, Primitive::kFaa);
  EXPECT_EQ(doc.find("schema")->as_string(), "am-run-report/1");

  const JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("bench")->as_string(), "report_test");
  EXPECT_EQ(meta->find("machine")->as_string(), "test-uniform");
  EXPECT_DOUBLE_EQ(meta->find("wall_time_s")->as_number(), 0.25);

  const JsonValue* table = doc.find("table");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->find("columns")->size(), 2u);
  EXPECT_EQ(table->find("rows")->at(0)->at(1)->as_string(), "1234");

  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const JsonValue& run = *runs->at(0);

  EXPECT_EQ(run.find("workload")->find("prim")->as_string(), "FAA");
  EXPECT_EQ(run.find("workload")->find("threads")->as_number(), 4.0);
  EXPECT_GT(run.find("totals")->find("ops")->as_number(), 0.0);
  ASSERT_EQ(run.find("threads")->size(), 4u);
  EXPECT_GT(run.find("threads")->at(0)->find("ops")->as_number(), 0.0);
  // Simulator histograms always sample tails: p99 is a number here.
  EXPECT_EQ(run.find("threads")->at(0)->find("p99_latency_cycles")->type(),
            JsonValue::Type::kNumber);
  EXPECT_GT(run.find("threads")
                ->at(0)
                ->find("ops_by_prim")
                ->find("FAA")
                ->as_number(),
            0.0);

  const JsonValue* coherence = run.find("coherence");
  ASSERT_NE(coherence, nullptr);
  EXPECT_GT(coherence->find("transfers")->find("near")->as_number(), 0.0);
  ASSERT_NE(coherence->find("evictions"), nullptr);

  const JsonValue* hot = run.find("hot_lines");
  ASSERT_NE(hot, nullptr);
  ASSERT_GT(hot->size(), 0u);
  EXPECT_EQ(hot->at(0)->find("line")->as_number(), 0.0);
  EXPECT_GT(hot->at(0)->find("acquisitions")->as_number(), 0.0);
  EXPECT_GT(hot->at(0)->find("mean_queue_depth")->as_number(), 0.0);
  ASSERT_NE(hot->at(0)->find("supply")->find("near"), nullptr);

  const JsonValue* epochs = run.find("epochs");
  ASSERT_NE(epochs, nullptr);
  EXPECT_GE(epochs->size(), 8u);
  EXPECT_GT(epochs->at(0)->find("throughput_ops_per_kcycle")->as_number(),
            0.0);
  EXPECT_GT(run.find("epoch_cycles")->as_number(), 0.0);
}

TEST(RunReport, InvalidLatencyTailSerializesAsNull) {
  clear_run_log();
  MeasuredRun r;
  r.backend = "hw";
  r.machine = "host";
  ThreadResult t;
  t.ops = 10;
  t.latency_tail_valid = false;  // e.g. no sampled op fell in the window
  r.threads.push_back(t);
  std::ostringstream os;
  write_run_report(os, ReportMeta{}, nullptr,
                   {RecordedRun{WorkloadConfig{}, r}});
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* thread =
      doc->find("runs")->at(0)->find("threads")->at(0);
  ASSERT_NE(thread, nullptr);
  EXPECT_TRUE(thread->find("p99_latency_cycles")->is_null());
  // Energy/perf were never measured either: null, not a misleading 0.
  EXPECT_TRUE(
      doc->find("runs")->at(0)->find("energy")->find("package_j")->is_null());
}

TEST(RunReport, SpellsEachPinOrder) {
  // A1 writes scatter runs into its report beside the compact default.
  std::vector<RecordedRun> runs(2);
  runs[0].workload.pin_order = PinOrder::kCompact;
  runs[1].workload.pin_order = PinOrder::kScatter;
  std::ostringstream os;
  write_run_report(os, ReportMeta{}, nullptr, runs);
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* written = doc->find("runs");
  ASSERT_EQ(written->size(), 2u);
  EXPECT_EQ(written->at(0)->find("workload")->find("pin_order")->as_string(),
            "compact");
  EXPECT_EQ(written->at(1)->find("workload")->find("pin_order")->as_string(),
            "scatter");
}

TEST(SimBackendObs, CarriesEvictionsAndPerPrimCounts) {
  // A working set far over the cache capacity forces capacity evictions.
  sim::MachineConfig cfg = sim::test_machine(2);
  cfg.cache_capacity_lines = 8;
  SimBackend backend(cfg);
  backend.set_line_profiling(true);
  WorkloadConfig w;
  w.mode = WorkloadMode::kPrivateWalk;
  w.prim = Primitive::kFaa;
  w.threads = 2;
  w.lines_per_thread = 64;
  const MeasuredRun r = backend.run(w);
  EXPECT_GT(r.evictions, 0u);
  for (const auto& t : r.threads) {
    EXPECT_EQ(t.ops_by_prim[static_cast<std::size_t>(Primitive::kFaa)], t.ops);
    EXPECT_EQ(t.successes_by_prim[static_cast<std::size_t>(Primitive::kFaa)],
              t.successes);
    EXPECT_TRUE(t.latency_tail_valid);
  }
  // The walk touches many lines; the profiler saw them all.
  EXPECT_GT(r.hot_lines.size(), 64u);
}

}  // namespace
}  // namespace am::bench
