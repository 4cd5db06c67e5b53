// The hand-off process: the abstract heart of the bouncing model.
//
// Under high contention the shared cache line behaves like a token handed
// from core to core; everything the paper models (throughput, latency,
// fairness, the effect of arbitration) is a property of that hand-off
// sequence. This module provides
//   * a closed form for the FIFO round-robin hand-off cost, and
//   * a tiny token-passing evaluation (no events, no values, no caches —
//     just the hand-off order) that predicts the mean transfer cost and the
//     per-core grant shares under any arbitration policy.
// The token-passing evaluation is still "the model", not the simulator: it
// abstracts away the coherence protocol, op semantics and timing jitter.
// At the default 20,000 steps one evaluation costs 0.1-1 ms (Xeon preset
// at N = 2..36, KNL preset at N = 2..64, measured on a 4-core x86-64 Xeon
// host), so BouncingModel evaluates it once per thread count and keeps it.
#pragma once

#include <cstdint>
#include <vector>

#include "model/params.hpp"

namespace am::model {

struct HandoffEstimate {
  double mean_transfer_cycles = 0.0;  ///< expected t over the hand-off chain
  double mean_hops = 0.0;
  double far_fraction = 0.0;          ///< fraction of cross-socket hand-offs
  std::vector<double> grant_shares;   ///< per-core fraction of grants
};

/// Closed form: with FIFO arbitration and all N cores always requesting,
/// grants rotate in arrival order, so hand-offs follow the fixed cycle
/// 0 -> 1 -> ... -> N-1 -> 0 and the expected transfer cost is the mean
/// over that cycle's edges. Shares are exactly 1/N.
HandoffEstimate round_robin_handoff(const ModelParams& p, std::uint32_t n);

/// Token-passing evaluation for an arbitrary arbitration policy: N always-
/// ready requesters, each grant costs (transfer + hold) cycles, aged
/// requests bypass the distance heuristic exactly as in the fabric.
/// @param hold_cycles cycles the grantee holds the line (l1 + exec)
/// @param steps       number of hand-offs to evaluate (after 1 warmup pass)
HandoffEstimate simulate_handoff(const ModelParams& p, std::uint32_t n,
                                 double hold_cycles, std::size_t steps = 20000);

/// Dispatches on p.arbitration: closed form for FIFO, token-passing
/// evaluation for nearest-first.
HandoffEstimate estimate_handoff(const ModelParams& p, std::uint32_t n,
                                 double hold_cycles);

}  // namespace am::model
