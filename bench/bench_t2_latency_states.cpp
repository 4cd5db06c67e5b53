// T2 — Low-contention latency of every primitive, conditioned on where the
// target cache line lives (the paper's state-conditioned latency table).
//
// Rows: primitive x line situation
//   local-M / local-E : line already held by the issuing core
//   local-S           : shared copy held locally (upgrade needed for RMWs)
//   neighbor-M        : dirty in the nearest other core's cache
//   remote-M          : dirty in the farthest core's cache (cross socket /
//                       opposite mesh corner)
//   memory            : cached nowhere
// Columns: measured single-op latency on the machine, model prediction.
#include <iostream>

#include "bench_util.hpp"
#include "sim/machine.hpp"

namespace am {
namespace {

struct Situation {
  const char* name;
  sim::Mesi state;
  bool remote;    // owner is another core
  bool farthest;  // use the most distant core as owner
};

int run(int argc, const char* const* argv) {
  CliParser cli("T2: single-op latency by primitive and line state");
  bench_util::add_common_flags(cli, bench_util::kBackend);
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const sim::MachineConfig cfg = bench_util::sim_machine(cli);
  const model::BouncingModel model(model::ModelParams::from_machine(cfg));
  const auto ic = cfg.make_interconnect();
  const sim::CoreId requester = 0;
  const sim::CoreId neighbor = 1;
  // Farthest core from core 0 under this topology's transfer metric.
  sim::CoreId far_core = 1;
  for (sim::CoreId c = 1; c < cfg.core_count(); ++c) {
    if (ic->transfer_cycles(c, requester) >
        ic->transfer_cycles(far_core, requester)) {
      far_core = c;
    }
  }

  const Situation situations[] = {
      {"local-M", sim::Mesi::kModified, false, false},
      {"local-E", sim::Mesi::kExclusive, false, false},
      {"local-S", sim::Mesi::kShared, false, false},
      {"neighbor-M", sim::Mesi::kModified, true, false},
      {"remote-M", sim::Mesi::kModified, true, true},
      {"memory", sim::Mesi::kInvalid, false, false},
  };

  Table table({"machine", "primitive", "line state", "measured (cy)",
               "model (cy)", "measured (ns)"});

  for (Primitive prim : all_primitives()) {
    if (prim == Primitive::kCasLoop) continue;  // identical to CAS here
    for (const Situation& s : situations) {
      sim::Machine machine(cfg);
      const sim::CoreId owner =
          s.remote ? (s.farthest ? far_core : neighbor) : requester;
      // Value 0 everywhere keeps CAS expectations fresh: T2 measures the
      // primitive's cost, not failure behaviour (that is F4).
      machine.prime_line(7, s.state, owner, 0);
      const sim::Cycles measured =
          machine.measure_single_op(requester, prim, 7);

      // Model prediction for the same situation.
      double predicted = 0.0;
      const double c = model.params().local_op_cycles(prim);
      if (s.state == sim::Mesi::kInvalid) {
        predicted = model.single_op_latency(prim, sim::Supply::kMemory, 0);
      } else if (s.remote) {
        predicted = model.single_op_latency(
            prim, ic->supply_class(owner, requester),
            static_cast<double>(ic->transfer_cycles(owner, requester)));
      } else if (s.state == sim::Mesi::kShared && needs_exclusive(prim)) {
        predicted = static_cast<double>(cfg.shared_supply) + c;  // upgrade
      } else {
        predicted = c;  // local hit
      }

      const double ns =
          static_cast<double>(measured) / cfg.freq_ghz;  // cycles -> ns
      table.add_row({cfg.name, to_string(prim), s.name,
                     Table::num(std::size_t{measured}),
                     Table::num(predicted, 1), Table::num(ns, 1)});
    }
  }

  bench_util::emit(cli, "T2: state-conditioned single-op latency (" +
                            cfg.name + ")",
                   table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
