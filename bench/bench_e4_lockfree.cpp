// E4 (extension) — lock-free data structures as model case studies.
//
// The Treiber stack is a CAS retry loop on one hot head word plus node-link
// traffic; its scalability curve must therefore follow the paper's CASLOOP
// analysis (completed ops *fall* as threads are added). The harness runs
// the full protocol on the coherence machine, reports completed stack
// operations, CAS attempt efficiency, and overlays the plain-CASLOOP model
// curve for reference.
#include <iostream>

#include "bench_util.hpp"
#include "lockfree/queue_program.hpp"
#include "lockfree/stack_program.hpp"
#include "sim/machine.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("E4: Treiber stack on the coherence machine");
  bench_util::add_common_flags(cli,
                               bench_util::kBackend | bench_util::kThreads);
  cli.add_flag("work", "cycles of local work between stack ops", "0");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const sim::MachineConfig cfg = bench_util::sim_machine(cli);
  const model::BouncingModel model(model::ModelParams::from_machine(cfg));
  const auto work = static_cast<sim::Cycles>(cli.get_int("work"));

  Table table({"machine", "threads", "stack ops/kcy", "CAS efficiency",
               "CASLOOP model ops/kcy", "stack/model"});

  for (std::uint32_t n : bench_util::thread_sweep(cli, cfg.core_count())) {
    sim::Machine machine(cfg, 17);
    lockfree::TreiberStackProgram prog(work);
    const sim::RunStats st = machine.run(prog, n, 50'000, 300'000);
    const double ops =
        static_cast<double>(lockfree::TreiberStackProgram::completed_ops(st));
    std::uint64_t cas_attempts = 0;
    for (const auto& t : st.threads) {
      cas_attempts += t.ops_by_prim[static_cast<std::size_t>(Primitive::kCas)];
    }
    const double x = ops * 1000.0 / static_cast<double>(st.measured_cycles);
    const model::Prediction loop =
        model.predict(Primitive::kCasLoop, n, static_cast<double>(work));
    table.add_row(
        {cfg.name, Table::num(std::size_t{n}), Table::num(x, 3),
         Table::num(cas_attempts > 0 ? ops / static_cast<double>(cas_attempts)
                                     : 1.0,
                    3),
         Table::num(loop.throughput_ops_per_kcycle, 3),
         Table::num(loop.throughput_ops_per_kcycle > 0
                        ? x / loop.throughput_ops_per_kcycle
                        : 0.0,
                    2)});
  }

  bench_util::emit(cli, "E4: Treiber stack vs CASLOOP model (" + cfg.name + ")",
                   table);
  std::cout << "note: each completed stack op also reads the head, writes a\n"
               "node link (push) or reads one (pop), so the stack sits below\n"
               "the bare CASLOOP curve by a roughly constant factor.\n";

  // Structure comparison: the MS queue spreads producers and consumers over
  // two hot words (tail+link vs head) and must beat the single-word stack.
  Table vs({"machine", "threads", "stack ops/kcy", "queue ops/kcy",
            "queue/stack"});
  for (std::uint32_t n : bench_util::thread_sweep(cli, cfg.core_count())) {
    sim::Machine ms(cfg, 21);
    lockfree::TreiberStackProgram stack(work);
    const sim::RunStats sst = ms.run(stack, n, 0, 300'000);
    const double sx =
        static_cast<double>(lockfree::TreiberStackProgram::completed_ops(sst)) *
        1000.0 / static_cast<double>(sst.measured_cycles);

    sim::Machine mq(cfg, 21);
    lockfree::MsQueueProgram queue(work);
    const sim::RunStats qst = mq.run(queue, n, 0, 300'000);
    const double qx = static_cast<double>(queue.total_completions()) * 1000.0 /
                      static_cast<double>(qst.measured_cycles);
    vs.add_row({cfg.name, Table::num(std::size_t{n}), Table::num(sx, 3),
                Table::num(qx, 3), Table::num(sx > 0 ? qx / sx : 0.0, 2)});
  }
  bench_util::emit(cli, "E4b: Treiber stack vs MS queue (" + cfg.name + ")",
                   vs);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
