// The cache-line-bouncing performance model — the paper's contribution.
//
// The model views a contended atomic as a token (the cache line in M state)
// handed between cores. With N threads issuing a primitive of local cost c
// on one line, separated by w cycles of private work, and a mean hand-off
// transfer cost T(N) given by the topology and arbitration policy:
//
//   hold            h      = T(N) + c
//   crossover       w*     = (N-1) * h
//   throughput      X(N,w) = min( 1/h , N/(w + h) )          [ops/cycle]
//   latency         L(N,w) = max( h , N*h - w )              [cycles]
//
// For w < w* the line is saturated: adding threads adds latency, not
// throughput (the high-contention plateau of the paper's figures). For
// w > w* requests no longer queue and throughput scales with N until the
// next crossover. LOAD never bounces once every reader holds a Shared copy,
// which is why loads scale where RMWs plateau.
//
// CAS refines this with a success model (see cas_model.hpp); fairness comes
// from the hand-off process's grant shares; energy from pricing each
// component of L (see energy predictor below).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "atomics/primitives.hpp"
#include "model/cas_model.hpp"
#include "model/handoff.hpp"
#include "model/params.hpp"

namespace am::model {

enum class Regime : std::uint8_t { kHighContention, kLowContention };

const char* to_string(Regime r) noexcept;

/// All model outputs for one (primitive, threads, work) point.
struct Prediction {
  Primitive prim = Primitive::kFaa;
  std::uint32_t threads = 1;
  double work = 0.0;

  Regime regime = Regime::kLowContention;
  double crossover_work = 0.0;       ///< w*, cycles
  double mean_transfer_cycles = 0.0; ///< T(N)
  double hold_cycles = 0.0;          ///< h = T(N) + c

  double throughput_ops_per_kcycle = 0.0;  ///< completed ops per 1000 cycles
  double throughput_mops = 0.0;            ///< completed ops per second / 1e6
  double latency_cycles = 0.0;             ///< per completed op
  double success_rate = 1.0;               ///< per completed op (CAS only <1)
  double attempts_per_op = 1.0;            ///< line acquisitions per op
  double fairness_jain = 1.0;              ///< over per-thread completed ops
  double energy_per_op_nj = 0.0;
};

/// Every method is const and safe to call from many threads at once: one
/// model per machine can serve all of a process's predictions. The model is
/// movable but not copyable; a moved-from model may only be destroyed or
/// assigned to.
class BouncingModel {
 public:
  explicit BouncingModel(ModelParams params);

  /// Prediction for the paper's high-contention setting (shared line).
  /// Valid for any w — the regime falls out of the crossover test.
  Prediction predict(Primitive prim, std::uint32_t threads, double work) const;

  /// Prediction for the paper's low-contention setting (private lines):
  /// no transfers in steady state, pure local cost.
  Prediction predict_private(Primitive prim, std::uint32_t threads,
                             double work) const;

  /// Read-mostly mix on one shared line: each thread issues @p write_prim
  /// with probability f and LOAD otherwise. Writers invalidate all reader
  /// copies; each reader's next load refetches (serialized shared supply).
  /// Aggregate op throughput:
  ///   reads between writes per reader are local (c_load) except the first;
  ///   every write costs a full acquisition h_w plus R refetches behind it.
  Prediction predict_mixed(Primitive write_prim, double write_fraction,
                           std::uint32_t threads, double work) const;

  /// Skewed sharing over @p n_lines lines with Zipf exponent @p s: each op
  /// picks line l with probability p_l. A closed queueing network of N
  /// customers over n_lines hand-off channels of service time h, solved
  /// with the Schweitzer mean-value approximation:
  ///     R_l = h · (1 + (N−1)·u_l),   u_l = p_l·R_l / (w + R),
  ///     R   = Σ_l p_l·R_l,           X  = N / (w + R).
  /// Exact in the single-hot-line limit (reduces to 1/h) and tight for the
  /// uniform case; E5 rows in tests/model quantify the skewed middle.
  Prediction predict_zipf(Primitive prim, std::uint32_t threads, double work,
                          std::size_t n_lines, double s) const;

  /// Crossover work w* for a shared-line workload.
  double crossover_work(Primitive prim, std::uint32_t threads) const;

  /// Expected hand-off transfer cost T(N) under the configured arbitration
  /// (0 below two threads: a lone thread never hands the line off).
  double mean_transfer(std::uint32_t threads) const;

  /// Latency of a single op whose line is in a given supply situation —
  /// the low-contention state-conditioned latency table (Table 2).
  ///   local-hit: c;  near/far: t + c;  memory: fill + c.
  double single_op_latency(Primitive prim, sim::Supply supply,
                           double transfer_cycles) const;

  const ModelParams& params() const noexcept { return params_; }

 private:
  /// What the model memoizes per thread count N >= 2.
  struct Contention {
    HandoffEstimate handoff;
    /// Share-aware CAS success over handoff.grant_shares, filled by the
    /// first CAS/CASLOOP prediction under randomized arbitration.
    std::optional<SharesSuccess> cas;
  };
  /// The memo holds at most `cores` entries, which are never erased, so
  /// references into it stay valid. The mutex guards lookups and inserts
  /// only; evaluations run outside it.
  struct Memo {
    std::mutex mu;
    std::map<std::uint32_t, Contention> by_threads;
  };

  Contention& contention_for(std::uint32_t threads) const;
  const SharesSuccess& cas_success_for(std::uint32_t threads) const;
  /// @param handoff the chain each acquisition travels, or nullptr when the
  ///        line never moves (LOAD, or a single thread).
  double energy_per_op(Primitive prim, double work, double latency,
                       double attempts, const HandoffEstimate* handoff) const;

  ModelParams params_;
  std::unique_ptr<Memo> memo_;  // behind a pointer: a mutex cannot move
};

}  // namespace am::model
