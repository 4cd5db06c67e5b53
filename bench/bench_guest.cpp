// G1 — Guest-corpus contention profiles: runs the checked-in RV32IMA
// corpus (compiled guest code, not synthetic op streams) across a hart
// sweep and reports each program's modeled contention profile; then
// cross-checks the FAA-counter kernel against the analytic model's FAA
// prediction at the equivalent local-work point, tying the guest frontend
// back to the paper's throughput model.
//
//   bench_guest --backend=sim:xeon:tso --harts=1,2,4,8 --csv=g1.csv

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_core/report.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "guest/corpus.hpp"
#include "guest/runner.hpp"
#include "model/bouncing_model.hpp"
#include "model/params.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("G1: guest-corpus contention profiles vs the analytic model");
  cli.add_flag("backend", "sim:{xeon|knl|test}[:{sc|tso}]", "sim:xeon");
  cli.add_flag("harts", "comma-separated hart counts", "1,2,4,8",
               CliParser::FlagKind::kIntList);
  cli.add_flag("seed", "machine + stack-fill seed", "1",
               CliParser::FlagKind::kUint64);
  cli.add_flag("csv", "write the profile table as CSV to this path", "");
  cli.add_flag("json-out",
               "write a JSON run report (schema am-run-report/1) covering "
               "every guest run",
               "");
  if (!cli.parse(argc, argv)) return 1;

  const sim::MachineConfig mc =
      guest::parse_guest_backend(cli.get("backend")).machine;

  std::vector<std::uint32_t> harts;
  for (auto v : cli.get_int_list("harts")) {
    if (v >= 1 && static_cast<std::uint32_t>(v) <= mc.cores) {
      harts.push_back(static_cast<std::uint32_t>(v));
    }
  }
  if (harts.empty()) harts = {1, 2};

  Table table({"program", "harts", "cycles", "instret", "IPC", "atomics/kcy",
               "sc-fail/hart", "xfer/atomic", "inval/atomic"});
  std::vector<bench::RecordedRun> runs;
  // faa_counter profile per hart count, kept for the model cross-check.
  std::vector<guest::GuestRunResult> faa_runs;

  for (const std::string& name : guest::corpus::names()) {
    const std::vector<std::uint8_t> elf = guest::corpus::build(name);
    for (std::uint32_t n : harts) {
      guest::GuestRunConfig config;
      config.backend = cli.get("backend");
      config.harts = n;
      config.seed = cli.get_uint64("seed");
      guest::GuestRunResult r = guest::run_guest(elf.data(), elf.size(),
                                                 config);
      if (!r.error.ok()) {
        table.add_row({name, Table::num(std::size_t{n}),
                       "FAILED:" + r.error.code, "-", "-", "-", "-", "-",
                       "-"});
        continue;
      }
      const double atomics = static_cast<double>(r.total_atomics);
      const std::uint64_t transfers = r.stats.transfers[0] +
                                      r.stats.transfers[1] +
                                      r.stats.transfers[2] +
                                      r.stats.transfers[3];
      table.add_row(
          {name, Table::num(std::size_t{n}),
           Table::num(std::size_t{r.completion_cycles}),
           Table::num(std::size_t{r.total_instructions}),
           Table::num(r.instructions_per_cycle(), 3),
           Table::num(r.atomics_per_kcycle(), 3),
           Table::num(static_cast<double>(r.total_sc_failures) / n, 1),
           Table::num(atomics > 0 ? static_cast<double>(transfers) / atomics
                                  : 0.0,
                      2),
           Table::num(atomics > 0
                          ? static_cast<double>(r.stats.invalidations) /
                                atomics
                          : 0.0,
                      2)});
      bench::WorkloadConfig workload;
      workload.threads = n;
      workload.seed = r.seed;
      if (name == "faa_counter") faa_runs.push_back(r);
      runs.push_back({workload, guest::to_measured_run(r)});
    }
  }
  std::cout << "\n== G1.1: guest corpus contention profiles (" << mc.name
            << ", " << cli.get("backend") << ") ==\n"
            << table;

  // Cross-check: the FAA-counter kernel is the guest-code realization of
  // the paper's high-contention FAA workload. Feed the model the measured
  // local work (plain instructions per atomic, each priced one cycle) and
  // compare throughputs; agreement within a small factor ties the frontend
  // to the model the paper validates.
  const model::BouncingModel model(model::ModelParams::from_machine(mc));
  Table xcheck({"harts", "guest atomics/kcy", "model ops/kcy", "ratio"});
  for (const guest::GuestRunResult& r : faa_runs) {
    if (r.total_atomics == 0) continue;
    const double work =
        static_cast<double>(r.total_instructions - r.total_atomics) /
        static_cast<double>(r.total_atomics);
    const auto p = model.predict(Primitive::kFaa, r.harts, work);
    const double guest_kcy = r.atomics_per_kcycle();
    xcheck.add_row({Table::num(std::size_t{r.harts}),
                    Table::num(guest_kcy, 3),
                    Table::num(p.throughput_ops_per_kcycle, 3),
                    Table::num(p.throughput_ops_per_kcycle > 0
                                   ? guest_kcy / p.throughput_ops_per_kcycle
                                   : 0.0,
                               2)});
  }
  std::cout << "\n== G1.2: faa_counter guest vs analytic FAA model ==\n"
            << xcheck;

  if (!cli.get("csv").empty()) {
    if (table.write_csv(cli.get("csv"))) {
      std::cout << "(csv written to " << cli.get("csv") << ")\n";
    } else {
      std::cerr << "failed to write csv to " << cli.get("csv") << "\n";
      return 1;
    }
  }
  if (!cli.get("json-out").empty()) {
    bench::ReportMeta meta;
    meta.bench = cli.program_name();
    meta.title = "G1: guest corpus contention profiles";
    meta.backend = cli.get("backend");
    meta.machine = mc.name;
    meta.command = cli.command_line();
    if (!bench::write_run_report_file(cli.get("json-out"), meta, nullptr,
                                      runs)) {
      std::cerr << "failed to write report to " << cli.get("json-out")
                << "\n";
      return 1;
    }
    std::cout << "(report written to " << cli.get("json-out") << ")\n";
  }
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
