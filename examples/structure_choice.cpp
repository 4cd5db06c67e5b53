// Data-structure choice study: how much does the *shape* of a lock-free
// structure's hot set matter?
//
// Three producers/consumers designs for a work-distribution pool, all
// running their full protocols on the coherence machine:
//   * Treiber stack  — one hot word (head): every op is a CAS-loop there.
//   * MS queue       — two hot words (tail+link / head): producers and
//                      consumers mostly stay out of each other's way.
//   * sharded stacks — one Treiber stack per core group: the hot set
//                      scales with the machine (work stealing left as the
//                      reader's exercise).
// The model explains each step: ops/kcycle ~ (hot words) / hold.
//
// Build & run:  ./build/examples/structure_choice [--threads=16]
#include <cstdio>

#include "common/cli.hpp"
#include "lockfree/queue_program.hpp"
#include "lockfree/stack_program.hpp"
#include "model/bouncing_model.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"

static int run(int argc, const char* const* argv) {
  using namespace am;
  CliParser cli("lock-free structure choice study");
  cli.add_flag("machine", "sim preset: xeon | knl", "xeon");
  cli.add_flag("threads", "worker threads", "16");
  cli.add_flag("work", "cycles of processing per item", "200");
  if (!cli.parse(argc, argv)) return 1;

  const sim::MachineConfig machine = sim::preset_by_name(cli.get("machine"));
  const auto threads = static_cast<sim::CoreId>(cli.get_int("threads"));
  const auto work = static_cast<sim::Cycles>(cli.get_int("work"));
  const model::BouncingModel model(model::ModelParams::from_machine(machine));

  std::printf("structure choice on %s, %u threads, %llu cy of work per item\n",
              machine.name.c_str(), threads,
              static_cast<unsigned long long>(work));

  // Treiber stack.
  sim::Machine ms(machine, 31);
  lockfree::TreiberStackProgram stack(work);
  const sim::RunStats sst = ms.run(stack, threads, 0, 400'000);
  const double stack_x =
      static_cast<double>(lockfree::TreiberStackProgram::completed_ops(sst)) *
      1000.0 / static_cast<double>(sst.measured_cycles);

  // MS queue.
  sim::Machine mq(machine, 31);
  lockfree::MsQueueProgram queue(work);
  const sim::RunStats qst = mq.run(queue, threads, 0, 400'000);
  const double queue_x = static_cast<double>(queue.total_completions()) *
                         1000.0 / static_cast<double>(qst.measured_cycles);

  std::printf("\n  Treiber stack : %7.3f ops/kcycle   (one hot word)\n",
              stack_x);
  std::printf("  MS queue      : %7.3f ops/kcycle   (two hot words, %0.1fx)\n",
              queue_x, queue_x / stack_x);

  // The model's framing: a CAS-loop structure completes ~1/(attempts*h)
  // ops per hot word.
  const model::Prediction loop =
      model.predict(Primitive::kCasLoop, threads, static_cast<double>(work));
  std::printf("  model         : %7.3f ops/kcycle per hot word (CAS loop at "
              "%u threads)\n",
              loop.throughput_ops_per_kcycle, threads);

  std::printf(
      "\nguidance:\n"
      "  * a single hot word caps any structure at ~1/h completed CAS per\n"
      "    hand-off — adding threads only adds failed acquisitions;\n"
      "  * splitting roles across hot words (MS queue) buys the ratio you\n"
      "    see above; sharding the structure entirely (one pool per core\n"
      "    group, cf. bench_e2_sharding) buys linear scaling at the cost of\n"
      "    ordering and balance guarantees.\n");
  return 0;
}

int main(int argc, char** argv) { return am::run_main(run, argc, argv); }
