#include "bench_core/report.hpp"

#include <cstddef>
#include <fstream>
#include <ostream>

#include "atomics/primitives.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/topology.hpp"
#include "sim/types.hpp"

namespace am::bench {

namespace {

constexpr const char* kSchema = "am-run-report/1";

void write_by_prim(JsonWriter& w, std::string_view key,
                   const std::array<std::uint64_t, 7>& counts) {
  // Emit only the primitives that actually ran; an all-zero map means the
  // backend/workload did not distinguish primitives.
  w.key(key).begin_object();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    w.kv(to_string(static_cast<Primitive>(i)), counts[i]);
  }
  w.end_object();
}

void write_supply(JsonWriter& w, std::string_view key,
                  const std::array<std::uint64_t, 4>& by_class) {
  w.key(key).begin_object();
  for (int s = 0; s < sim::kSupplyClasses; ++s) {
    w.kv(sim::to_string(static_cast<sim::Supply>(s)),
         by_class[static_cast<std::size_t>(s)]);
  }
  w.end_object();
}

void write_workload(JsonWriter& w, const WorkloadConfig& c) {
  w.key("workload").begin_object();
  w.kv("prim", to_string(c.prim));
  w.kv("mode", to_string(c.mode));
  w.kv("threads", c.threads);
  w.kv("work", c.work);
  w.kv("work_jitter", c.work_jitter);
  switch (c.mode) {
    case WorkloadMode::kZipf:
      w.kv("zipf_lines", std::uint64_t{c.zipf_lines});
      w.kv("zipf_s", c.zipf_s);
      break;
    case WorkloadMode::kMixedReadWrite:
      w.kv("write_fraction", c.write_fraction);
      break;
    case WorkloadMode::kSharded:
      w.kv("shards", c.shards);
      break;
    case WorkloadMode::kPrivateWalk:
      w.kv("lines_per_thread", c.lines_per_thread);
      break;
    default:
      break;
  }
  w.kv("seed", c.seed);
  w.kv("pin_order", to_string(c.pin_order));
  w.kv("describe", c.describe());
  w.end_object();
}

void write_threads(JsonWriter& w, const MeasuredRun& r) {
  w.key("threads").begin_array();
  for (const auto& t : r.threads) {
    w.begin_object();
    w.kv("ops", t.ops);
    w.kv("successes", t.successes);
    w.kv("failures", t.failures);
    w.kv("attempts", t.attempts);
    w.kv("mean_latency_cycles", t.mean_latency_cycles);
    if (t.latency_tail_valid) {
      w.kv("p99_latency_cycles", t.p99_latency_cycles);
    } else {
      w.kv_null("p99_latency_cycles");
    }
    write_by_prim(w, "ops_by_prim", t.ops_by_prim);
    write_by_prim(w, "successes_by_prim", t.successes_by_prim);
    w.end_object();
  }
  w.end_array();
}

void write_hot_lines(JsonWriter& w, const MeasuredRun& r) {
  w.key("hot_lines").begin_array();
  for (const auto& h : r.hot_lines) {
    w.begin_object();
    w.kv("line", h.line);
    w.kv("accesses", h.accesses);
    w.kv("acquisitions", h.acquisitions);
    w.kv("invalidations", h.invalidations);
    w.kv("mean_queue_depth", h.mean_queue_depth);
    w.kv("max_queue_depth", h.max_queue_depth);
    w.kv("mean_hold_cycles", h.mean_hold_cycles);
    write_supply(w, "supply", h.supply);
    w.end_object();
  }
  w.end_array();
}

void write_epochs(JsonWriter& w, const MeasuredRun& r) {
  w.kv("epoch_cycles", r.epoch_cycles);
  w.key("epochs").begin_array();
  for (const auto& e : r.epochs) {
    w.begin_object();
    w.kv("start_cycle", e.start_cycle);
    w.kv("ops", e.ops);
    w.kv("attempts", e.attempts);
    w.kv("throughput_ops_per_kcycle", e.throughput_ops_per_kcycle);
    w.kv("wait_fraction", e.wait_fraction);
    w.kv("outstanding_max", e.outstanding_max);
    w.end_object();
  }
  w.end_array();
}

void write_run(JsonWriter& w, const RecordedRun& rec) {
  const MeasuredRun& r = rec.run;
  w.begin_object();
  write_workload(w, rec.workload);
  w.kv("backend", r.backend);
  w.kv("machine", r.machine);
  w.kv("duration_cycles", r.duration_cycles);
  w.kv("freq_ghz", r.freq_ghz);

  w.key("totals").begin_object();
  w.kv("ops", r.total_ops());
  w.kv("successes", r.total_successes());
  w.kv("attempts", r.total_attempts());
  w.kv("throughput_ops_per_kcycle", r.throughput_ops_per_kcycle());
  w.kv("throughput_mops", r.throughput_mops());
  w.kv("mean_latency_cycles", r.mean_latency_cycles());
  w.kv("success_rate", r.success_rate());
  w.kv("attempts_per_op", r.attempts_per_op());
  w.kv("jain_fairness", r.jain_fairness());
  w.kv("min_max_ratio", r.min_max_ratio());
  w.end_object();

  write_threads(w, r);

  w.key("coherence").begin_object();
  write_supply(w, "transfers", r.transfers);
  w.kv("invalidations", r.invalidations);
  w.kv("memory_fetches", r.memory_fetches);
  w.kv("evictions", r.evictions);
  w.end_object();

  w.key("energy").begin_object();
  w.kv("valid", r.energy_valid);
  if (r.energy_valid) {
    w.kv("package_j", r.energy_package_j);
    w.kv("dram_j", r.energy_dram_j);
    w.kv("per_op_nj", r.energy_per_op_nj());
  } else {
    w.kv_null("package_j");
    w.kv_null("dram_j");
    w.kv_null("per_op_nj");
  }
  w.end_object();

  w.key("perf").begin_object();
  w.kv("valid", r.perf_valid);
  if (r.perf_valid) {
    w.kv("cycles", r.perf_cycles);
    w.kv("instructions", r.perf_instructions);
  } else {
    w.kv_null("cycles");
    w.kv_null("instructions");
  }
  w.end_object();

  write_hot_lines(w, r);
  write_epochs(w, r);
  w.end_object();
}

}  // namespace

void write_run_report(std::ostream& os, const ReportMeta& meta,
                      const Table* table, const std::vector<RecordedRun>& runs,
                      const SweepReport* sweep) {
  JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.kv("schema", kSchema);

  w.key("meta").begin_object();
  w.kv("bench", meta.bench);
  w.kv("title", meta.title);
  w.kv("backend", meta.backend);
  w.kv("machine", meta.machine);
  w.kv("command", meta.command);
  w.kv("wall_time_s", meta.wall_time_s);
  w.end_object();

  if (table != nullptr) {
    w.key("table").begin_object();
    w.key("columns").begin_array();
    for (const auto& h : table->header()) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (std::size_t i = 0; i < table->row_count(); ++i) {
      w.begin_array();
      for (const auto& cell : table->row(i)) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }

  w.key("runs").begin_array();
  for (const auto& rec : runs) write_run(w, rec);
  w.end_array();

  if (sweep != nullptr) {
    w.key("sweep").begin_object();
    w.kv("points", std::uint64_t{sweep->points});
    w.kv("ok", std::uint64_t{sweep->ok});
    w.kv("failed", std::uint64_t{sweep->failures.size()});
    w.kv("cache_io_errors", sweep->cache_io_errors);
    w.kv("quarantined_files", std::uint64_t{sweep->quarantined_files});
    w.key("failed_points").begin_array();
    for (const auto& f : sweep->failures) {
      w.begin_object();
      w.kv("index", std::uint64_t{f.index});
      w.kv("status", f.status);
      w.kv("seed", f.seed);
      w.kv("message", f.message);
      w.kv("replay", f.replay);
      w.kv("workload", f.workload);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  os << "\n";
}

bool write_run_report_file(const std::string& path, const ReportMeta& meta,
                           const Table* table,
                           const std::vector<RecordedRun>& runs,
                           const SweepReport* sweep) {
  std::ofstream os(path);
  if (!os) return false;
  write_run_report(os, meta, table, runs, sweep);
  return os.good();
}

}  // namespace am::bench
