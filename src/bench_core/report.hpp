// JSON run-report writer.
//
// Serializes everything a bench binary measured — the rendered result table
// plus the full MeasuredRun of every workload executed through the backend
// seam — into one machine-readable document (schema "am-run-report/1").
// scripts/plot_results.py and the model-calibration tools consume these
// instead of scraping stdout; the CSV mirror stays for spreadsheets.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bench_core/backend.hpp"

namespace am {
class Table;
}

namespace am::bench {

/// Report provenance; everything optional except bench/title.
struct ReportMeta {
  std::string bench;    ///< binary name (argv[0] basename)
  std::string title;    ///< table/figure title, as printed
  std::string backend;  ///< backend spec ("sim:xeon", "hw", ...)
  std::string machine;  ///< machine/preset the backend reported
  std::string command;  ///< reconstructed command line
  double wall_time_s = 0.0;  ///< wall time of the whole bench run
};

/// Sweep-resilience summary for the report's "sweep" section: how many
/// points survived, which failed (with a replay command), and what the
/// result cache had to absorb. Statuses are the to_string() names of
/// bench::PointStatus, kept as strings so the report layer stays decoupled
/// from the engine.
struct SweepReport {
  std::size_t points = 0;  ///< points submitted
  std::size_t ok = 0;      ///< points that produced a measurement
  std::uint64_t cache_io_errors = 0;
  std::size_t quarantined_files = 0;
  struct Failure {
    std::size_t index = 0;
    std::string status;    ///< "timeout", "sim_error", ...
    std::uint64_t seed = 0;
    std::string message;   ///< one-line failure description
    std::string replay;    ///< command that re-executes just this point
    std::string workload;  ///< WorkloadConfig::describe(), or "task"
  };
  std::vector<Failure> failures;
};

/// Writes the report to @p os. @p table may be null (no table section);
/// @p runs is typically run_log(); @p sweep may be null (no sweep section).
/// Pretty-printed (reports are small and meant to be diffable).
void write_run_report(std::ostream& os, const ReportMeta& meta,
                      const Table* table, const std::vector<RecordedRun>& runs,
                      const SweepReport* sweep = nullptr);

/// Writes the report to @p path; returns false on I/O failure.
bool write_run_report_file(const std::string& path, const ReportMeta& meta,
                           const Table* table,
                           const std::vector<RecordedRun>& runs,
                           const SweepReport* sweep = nullptr);

}  // namespace am::bench
