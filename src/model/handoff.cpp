#include "model/handoff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/random.hpp"

namespace am::model {

namespace {
// Proximity bias is anchored at the line's home agent (core 0 for the
// canonical single-line workload), matching Machine::arbitrate.
constexpr std::uint32_t kHome = 0;
}  // namespace

HandoffEstimate round_robin_handoff(const ModelParams& p, std::uint32_t n) {
  HandoffEstimate e;
  e.grant_shares.assign(n, n > 0 ? 1.0 / n : 0.0);
  if (n < 2) return e;  // a single core never transfers
  double t = 0.0;
  double h = 0.0;
  double far = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = (i + 1) % n;
    t += p.transfer_between(i, j);
    h += p.hops_between(i, j);
    far += p.far_between(i, j) ? 1.0 : 0.0;
  }
  e.mean_transfer_cycles = t / n;
  e.mean_hops = h / n;
  e.far_fraction = far / n;
  return e;
}

HandoffEstimate simulate_handoff(const ModelParams& p, std::uint32_t n,
                                 double hold_cycles, std::size_t steps) {
  if (n == 0 || n > p.cores) {
    throw std::invalid_argument("simulate_handoff: bad core count");
  }
  const std::size_t stride = p.cores;
  const std::size_t cells = stride * stride;
  if (p.transfer.size() < cells || p.hops.size() < cells ||
      p.is_far.size() < cells || p.distance.size() < cells) {
    throw std::invalid_argument("simulate_handoff: tables not cores x cores");
  }
  HandoffEstimate e;
  e.grant_shares.assign(n, 0.0);
  if (n < 2) {
    e.grant_shares.assign(n, 1.0);
    return e;
  }

  // The owner is the only core not waiting: every other core re-requests
  // the moment its grant completes. So the proximity race needs no waiting
  // set, each core's weight is computed once, and the race total is a
  // per-owner constant, summed in the same index order as the race itself.
  const sim::Arbitration policy = p.arbitration;
  const bool race = policy != sim::Arbitration::kFifo &&
                    policy != sim::Arbitration::kNearestFirst;
  std::vector<double> weight;
  std::vector<double> race_total;
  if (race) {
    weight.resize(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      weight[c] =
          std::exp(-p.distance[kHome * stride + c] / p.arbitration_bias);
    }
    race_total.assign(n, 0.0);
    for (std::uint32_t o = 0; o < n; ++o) {
      for (std::uint32_t c = 0; c < n; ++c) {
        if (c != o) race_total[o] += weight[c];
      }
    }
  }

  // State: token owner + each core's request arrival time.
  Xoshiro256 rng(0x9d2c5680);  // same arbitration seed family as the machine
  std::uint32_t owner = 0;
  double now = 0.0;
  std::vector<double> arrival(n, 0.0);
  // Earliest-arrived waiter, lowest index on ties; n if none compares.
  auto oldest_waiter = [&] {
    std::uint32_t oldest = n;
    double at = std::numeric_limits<double>::infinity();
    for (std::uint32_t c = 0; c < n; ++c) {
      if (c != owner && arrival[c] < at) {
        at = arrival[c];
        oldest = c;
      }
    }
    return oldest;
  };

  double sum_t = 0.0;
  double sum_hops = 0.0;
  double far = 0.0;
  std::size_t counted = 0;
  const std::size_t warmup = n;  // one full pass before counting

  for (std::size_t step = 0; step < steps + warmup; ++step) {
    std::uint32_t next = n;
    if (policy == sim::Arbitration::kFifo) {
      next = oldest_waiter();
    } else if (policy == sim::Arbitration::kNearestFirst) {
      next = oldest_waiter();
      // Aged requests bypass the distance heuristic.
      if (next < n && !(p.aging_limit > 0 &&
                        now - arrival[next] > p.aging_limit)) {
        const double* dist = &p.distance[owner * stride];
        double best_d = std::numeric_limits<double>::infinity();
        for (std::uint32_t c = 0; c < n; ++c) {
          if (c == owner) continue;
          // Tie-break by age so equal-distance cores rotate.
          if (dist[c] < best_d ||
              (dist[c] == best_d && arrival[c] < arrival[next])) {
            best_d = dist[c];
            next = c;
          }
        }
      }
    } else {
      // Proximity-biased race anchored at the home agent, mirroring
      // Machine::arbitrate. Rounding can leave the pick above zero after
      // the last weight; the oldest waiter takes the grant then.
      double pick = rng.next_double() * race_total[owner];
      for (std::uint32_t c = 0; c < n; ++c) {
        if (c == owner) continue;
        pick -= weight[c];
        if (pick <= 0.0) {
          next = c;
          break;
        }
      }
      if (next == n) next = oldest_waiter();
    }
    if (next == n) break;  // nobody waiting (cannot happen for n >= 2)

    const std::size_t edge = owner * stride + next;
    const double t = p.transfer[edge];
    if (step >= warmup) {
      sum_t += t;
      sum_hops += p.hops[edge];
      far += p.is_far[edge] != 0 ? 1.0 : 0.0;
      e.grant_shares[next] += 1.0;
      ++counted;
    }
    now += t + hold_cycles;
    arrival[owner] = now;  // previous owner re-requests after its grant
    owner = next;
  }

  if (counted > 0) {
    e.mean_transfer_cycles = sum_t / static_cast<double>(counted);
    e.mean_hops = sum_hops / static_cast<double>(counted);
    e.far_fraction = far / static_cast<double>(counted);
    for (auto& s : e.grant_shares) s /= static_cast<double>(counted);
  }
  return e;
}

HandoffEstimate estimate_handoff(const ModelParams& p, std::uint32_t n,
                                 double hold_cycles) {
  if (p.arbitration == sim::Arbitration::kFifo) {
    return round_robin_handoff(p, n);
  }
  return simulate_handoff(p, n, hold_cycles);
}

}  // namespace am::model
