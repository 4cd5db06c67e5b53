// A1 — Ablations over the design choices DESIGN.md calls out:
//   1. directory arbitration policy (FIFO / nearest-first / proximity-
//      biased) — throughput and fairness consequences;
//   2. CAS-loop backoff — sweep the backoff multiple around the model's
//      recommendation and show where completed-op throughput peaks;
//   3. backoff randomization — deterministic vs jittered backoff at the
//      recommended value (lock-step phases never desynchronize);
//   4. thread placement — compact (fill one socket first) vs scatter
//      (alternate sockets): scatter turns every hand-off into a far
//      transfer and lowers the plateau.
#include <iostream>

#include "bench_core/sim_backend.hpp"
#include "bench_util.hpp"
#include "model/advisor.hpp"

namespace am {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("A1: arbitration and backoff ablations");
  bench_util::add_common_flags(cli, bench_util::kBackend | bench_util::kTrace);
  cli.add_flag("ablation-threads", "thread count for the ablations", "16");
  if (!am::bench_util::parse_common(cli, argc, argv)) return 1;

  const sim::MachineConfig base = bench_util::sim_machine(cli);
  const auto n = static_cast<std::uint32_t>(cli.get_int("ablation-threads"));

  // --- 1. arbitration policy ------------------------------------------------
  Table arb_table({"arbitration", "primitive", "threads", "ops/kcy", "Jain",
                   "min/max", "mean lat (cy)"});
  for (sim::Arbitration arb :
       {sim::Arbitration::kFifo, sim::Arbitration::kNearestFirst,
        sim::Arbitration::kProximityBiased}) {
    sim::MachineConfig cfg = base;
    cfg.arbitration = arb;
    bench::SimBackend backend(cfg);
    bench_util::apply_obs(cli, backend);
    for (Primitive prim : {Primitive::kFaa, Primitive::kCasLoop}) {
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kHighContention;
      w.prim = prim;
      w.threads = n;
      const auto r = backend.run(w);
      arb_table.add_row({to_string(arb), to_string(prim),
                         Table::num(std::size_t{n}),
                         Table::num(r.throughput_ops_per_kcycle(), 3),
                         Table::num(r.jain_fairness(), 3),
                         Table::num(r.min_max_ratio(), 3),
                         Table::num(r.mean_latency_cycles(), 1)});
    }
  }
  bench_util::emit(cli, "A1.1: arbitration-policy ablation (" + base.name + ")",
                   arb_table);

  // --- 2. backoff multiple sweep ---------------------------------------------
  bench::SimBackend backend(base);
  bench_util::apply_obs(cli, backend);
  const model::BouncingModel model(model::ModelParams::from_machine(base));
  const double wstar = model.crossover_work(Primitive::kCasLoop, n);

  Table backoff_table({"backoff (x w*)", "work (cy)", "ops/kcy", "acq/op",
                       "Jain", "advisor pick"});
  const double recommended =
      model::recommended_backoff_cycles(model, n) / wstar;
  for (double mult : {0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) {
    bench::WorkloadConfig w;
    w.mode = bench::WorkloadMode::kHighContention;
    w.prim = Primitive::kCasLoop;
    w.threads = n;
    w.work = static_cast<bench::Cycles>(mult * wstar);
    w.work_jitter = 0.5;
    const auto r = backend.run(w);
    const bool picked = std::abs(mult - recommended) < 0.26;
    backoff_table.add_row({Table::num(mult, 2),
                           Table::num(std::size_t{w.work}),
                           Table::num(r.throughput_ops_per_kcycle(), 3),
                           Table::num(r.attempts_per_op(), 2),
                           Table::num(r.jain_fairness(), 3),
                           picked ? "<= recommended" : ""});
  }
  bench_util::emit(cli, "A1.2: CAS-loop backoff sweep (" + base.name + ")",
                   backoff_table);

  // --- 3. randomized vs deterministic backoff --------------------------------
  Table jitter_table({"backoff", "jitter", "ops/kcy", "acq/op", "Jain"});
  for (double jitter : {0.0, 0.25, 0.5}) {
    bench::WorkloadConfig w;
    w.mode = bench::WorkloadMode::kHighContention;
    w.prim = Primitive::kCasLoop;
    w.threads = n;
    w.work =
        static_cast<bench::Cycles>(model::recommended_backoff_cycles(model, n));
    w.work_jitter = jitter;
    const auto r = backend.run(w);
    jitter_table.add_row({Table::num(std::size_t{w.work}),
                          Table::num(jitter, 2),
                          Table::num(r.throughput_ops_per_kcycle(), 3),
                          Table::num(r.attempts_per_op(), 2),
                          Table::num(r.jain_fairness(), 3)});
  }
  bench_util::emit(cli,
                   "A1.3: deterministic vs randomized backoff (" + base.name +
                       ")",
                   jitter_table);

  // --- 4. placement: compact vs scatter --------------------------------------
  Table placement_table({"placement", "threads", "ops/kcy", "mean lat (cy)",
                         "far transfers %"});
  for (PinOrder order : {PinOrder::kCompact, PinOrder::kScatter}) {
    for (std::uint32_t nt : {8u, 16u, n}) {
      if (nt > backend.max_threads()) continue;
      bench::WorkloadConfig w;
      w.mode = bench::WorkloadMode::kHighContention;
      w.prim = Primitive::kFaa;
      w.threads = nt;
      w.pin_order = order;
      const auto r = backend.run(w);
      const double total_xfers = static_cast<double>(
          r.transfers[1] + r.transfers[2] + r.transfers[3]);
      const double far_pct =
          total_xfers > 0.0
              ? 100.0 * static_cast<double>(r.transfers[2]) / total_xfers
              : 0.0;
      placement_table.add_row({to_string(order), Table::num(std::size_t{nt}),
                               Table::num(r.throughput_ops_per_kcycle(), 3),
                               Table::num(r.mean_latency_cycles(), 1),
                               Table::num(far_pct, 1)});
    }
  }
  bench_util::emit(cli, "A1.4: placement ablation (" + base.name + ")",
                   placement_table);
  return 0;
}

}  // namespace
}  // namespace am

int main(int argc, char** argv) { return am::run_main(am::run, argc, argv); }
