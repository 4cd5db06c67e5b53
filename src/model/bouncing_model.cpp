#include "model/bouncing_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace am::model {

const char* to_string(Regime r) noexcept {
  switch (r) {
    case Regime::kHighContention: return "high-contention";
    case Regime::kLowContention: return "low-contention";
  }
  return "?";
}

BouncingModel::BouncingModel(ModelParams params)
    : params_(std::move(params)), memo_(std::make_unique<Memo>()) {}

BouncingModel::Contention& BouncingModel::contention_for(
    std::uint32_t threads) const {
  {
    const std::lock_guard<std::mutex> lock(memo_->mu);
    const auto it = memo_->by_threads.find(threads);
    if (it != memo_->by_threads.end()) return it->second;
  }
  // Hold time barely affects the hand-off chain's geometry; use the FAA
  // local cost as the representative hold. The evaluation is deterministic,
  // so when two threads miss on the same count the first insert wins and
  // the other copy, bit-identical, is dropped.
  Contention fresh{estimate_handoff(params_, threads,
                                    params_.local_op_cycles(Primitive::kFaa)),
                   std::nullopt};
  const std::lock_guard<std::mutex> lock(memo_->mu);
  return memo_->by_threads.try_emplace(threads, std::move(fresh))
      .first->second;
}

const SharesSuccess& BouncingModel::cas_success_for(
    std::uint32_t threads) const {
  Contention& c = contention_for(threads);
  {
    const std::lock_guard<std::mutex> lock(memo_->mu);
    if (c.cas) return *c.cas;
  }
  SharesSuccess fresh = cas_success_from_shares(c.handoff.grant_shares);
  const std::lock_guard<std::mutex> lock(memo_->mu);
  if (!c.cas) c.cas = std::move(fresh);
  return *c.cas;
}

double BouncingModel::mean_transfer(std::uint32_t threads) const {
  if (threads < 2) return 0.0;
  return contention_for(threads).handoff.mean_transfer_cycles;
}

double BouncingModel::crossover_work(Primitive prim,
                                     std::uint32_t threads) const {
  if (threads < 2) return 0.0;
  const double h = mean_transfer(threads) + params_.local_op_cycles(prim);
  return static_cast<double>(threads - 1) * h;
}

double BouncingModel::single_op_latency(Primitive prim, sim::Supply supply,
                                        double transfer_cycles) const {
  const double c = params_.local_op_cycles(prim);
  switch (supply) {
    case sim::Supply::kLocalHit: return c;
    case sim::Supply::kNear:
    case sim::Supply::kFar: return transfer_cycles + c;
    case sim::Supply::kMemory: return params_.memory_fill + c;
  }
  return c;
}

double BouncingModel::energy_per_op(Primitive prim, double work,
                                    double latency, double attempts,
                                    const HandoffEstimate* handoff) const {
  const auto& e = params_.energy;
  const double f_hz = params_.freq_ghz * 1e9;
  const double c = params_.local_op_cycles(prim);
  // Cycles the issuing core is genuinely busy vs. stalled per completed op.
  const double active_cycles = attempts * c + work;
  const double spin_cycles = std::max(0.0, latency - attempts * c);
  double joules = (active_cycles * e.core_active_watts +
                   spin_cycles * e.core_spin_watts) / f_hz;
  // Uncore events: each line acquisition is one directory lookup plus one
  // transfer (for threads >= 2 on a shared line).
  if (handoff != nullptr) {
    joules += attempts *
              (e.directory_nj + e.transfer_nj_base +
               e.transfer_nj_per_hop * handoff->mean_hops +
               e.cross_link_nj * handoff->far_fraction) * 1e-9;
  }
  return joules * 1e9;  // nJ
}

Prediction BouncingModel::predict(Primitive prim, std::uint32_t threads,
                                  double work) const {
  Prediction out;
  out.prim = prim;
  out.threads = threads;
  out.work = work;

  const double c = params_.local_op_cycles(prim);
  const double n = static_cast<double>(threads);

  // LOAD (or one thread): no ownership changes in steady state.
  if (!needs_exclusive(prim) || threads < 2) {
    out.regime = Regime::kLowContention;
    out.hold_cycles = c;
    out.latency_cycles = c;
    out.throughput_ops_per_kcycle = n * 1000.0 / (work + c);
    out.throughput_mops =
        out.throughput_ops_per_kcycle / 1000.0 * params_.freq_ghz * 1e3;
    out.energy_per_op_nj =
        energy_per_op(prim, work, out.latency_cycles, 1.0, nullptr);
    return out;
  }

  const HandoffEstimate& ho = contention_for(threads).handoff;
  const double T = ho.mean_transfer_cycles;
  const double h = T + c;
  out.mean_transfer_cycles = T;
  out.hold_cycles = h;
  out.crossover_work = (n - 1.0) * h;
  out.regime = work < out.crossover_work ? Regime::kHighContention
                                         : Regime::kLowContention;

  const double lat_acq = std::max(h, n * h - work);

  // Success model. Under randomized (proximity-biased) arbitration the
  // grant shares feed the share-aware fixed point: frequent winners see
  // fewer intervening modifications and succeed more often. Under FIFO the
  // rotation is deterministic and exactly one requester per pass succeeds.
  // Only CAS and CASLOOP read the fixed point, so only they evaluate it.
  const bool randomized = params_.arbitration != sim::Arbitration::kFifo;
  const bool cas = prim == Primitive::kCas || prim == Primitive::kCasLoop;
  const SharesSuccess* shares_success =
      randomized && cas ? &cas_success_for(threads) : nullptr;
  double success = 1.0;
  double attempts = 1.0;
  if (prim == Primitive::kCas) {
    success = randomized ? shares_success->mean_success
                         : cas_success_deterministic(threads);
  } else if (prim == Primitive::kCasLoop) {
    const double s = randomized ? shares_success->mean_success
                                : cas_success_deterministic(threads);
    // Saturated: the line is stolen between attempts, so each completion
    // costs ~1/s acquisitions. Fully drained (w >= 3*w*, the same headroom
    // the backoff ablation measures): the refreshed retry holds the line
    // -> <= 2 acquisitions. The queue drains gradually in between, so the
    // attempts interpolate linearly across [w*, 3*w*].
    const double saturated_attempts = 1.0 / s;
    const double drained_attempts = std::min(1.0 / s, 2.0);
    if (work <= out.crossover_work) {
      attempts = saturated_attempts;
    } else if (work >= 3.0 * out.crossover_work) {
      attempts = drained_attempts;
    } else {
      const double frac =
          (work - out.crossover_work) / (2.0 * out.crossover_work);
      attempts =
          saturated_attempts + frac * (drained_attempts - saturated_attempts);
    }
  }

  out.success_rate = success;
  out.attempts_per_op = attempts;
  // Completed-op throughput: each op costs `attempts` serialized
  // acquisitions when saturated, and a closed-loop period of
  // work + attempts*h otherwise.
  out.throughput_ops_per_kcycle =
      std::min(1.0 / (attempts * h), n / (work + attempts * h)) * 1000.0;
  out.throughput_mops =
      out.throughput_ops_per_kcycle / 1000.0 * params_.freq_ghz * 1e3;
  out.latency_cycles = attempts > 1.0 ? attempts * h : lat_acq;

  // Fairness: FIFO divides acquisitions evenly; proximity bias skews them.
  // A CAS loop additionally concentrates *completions* on frequent winners
  // (completion share ~ q_i * s_i; total monopoly under FIFO).
  if (prim == Primitive::kCasLoop) {
    if (randomized) {
      std::vector<double> completion_shares(ho.grant_shares.size(), 0.0);
      for (std::size_t i = 0; i < completion_shares.size(); ++i) {
        completion_shares[i] =
            ho.grant_shares[i] * shares_success->per_core_success[i];
      }
      out.fairness_jain = jain_fairness(completion_shares);
    } else {
      out.fairness_jain = 1.0 / n;
    }
  } else if (params_.arbitration == sim::Arbitration::kFifo) {
    out.fairness_jain = 1.0;
  } else {
    out.fairness_jain = jain_fairness(ho.grant_shares);
  }

  // Energy is a *system* quantity: while one op's acquisitions serialize,
  // every other core burns spin power. Total core-cycles per completed op
  // is N * attempts * h in the saturated regime (for attempts == 1 this is
  // exactly the N*h - w latency the plain formula already uses).
  const double energy_cycles =
      std::max(out.latency_cycles, n * attempts * h - work);
  out.energy_per_op_nj =
      energy_per_op(prim, work, energy_cycles, attempts, &ho);
  return out;
}

Prediction BouncingModel::predict_mixed(Primitive write_prim,
                                        double write_fraction,
                                        std::uint32_t threads,
                                        double work) const {
  Prediction out;
  out.prim = write_prim;
  out.threads = threads;
  out.work = work;
  write_fraction = std::clamp(write_fraction, 0.0, 1.0);

  const double n = static_cast<double>(std::max(1u, threads));
  const double c_load = params_.local_op_cycles(Primitive::kLoad);
  const double c_write = params_.local_op_cycles(write_prim);
  if (threads < 2 || write_fraction <= 0.0) {
    // Pure reads (or one thread): local cost only.
    const double c = write_fraction > 0.0
                         ? write_fraction * c_write +
                               (1.0 - write_fraction) * c_load
                         : c_load;
    out.regime = Regime::kLowContention;
    out.hold_cycles = c;
    out.latency_cycles = c;
    out.throughput_ops_per_kcycle = n * 1000.0 / (work + c);
    out.throughput_mops =
        out.throughput_ops_per_kcycle / 1000.0 * params_.freq_ghz * 1e3;
    return out;
  }

  const HandoffEstimate& ho = contention_for(threads).handoff;
  const double T = ho.mean_transfer_cycles;
  const double h_write = T + c_write;                     // writer acquisition
  const double refetch = params_.shared_supply + c_load;  // reader refill

  // Per write period: one write acquisition, r = (1-f)/f reads, of which
  // at most one per reader (and at most r) pays a serialized refetch; the
  // rest are local L1 hits. This is a conservative (lower) throughput
  // bound: on the real fabric a subsequent write often overtakes pending
  // refetches, cancelling part of the burst (E3 records measured above
  // model at intermediate f for exactly this reason).
  const double f = write_fraction;
  const double r = (1.0 - f) / f;  // reads per write
  const double refetches = std::min(n - 1.0, r);
  const double slot_per_period = h_write + refetches * refetch;
  const double ops_per_period = 1.0 + r;
  const double x_saturated = ops_per_period / slot_per_period;

  // Work-bound alternative when local work dominates.
  const double mean_op =
      (h_write + refetches * refetch + (r - refetches) * c_load) /
      ops_per_period;
  const double x = std::min(x_saturated, n / (work + mean_op));

  out.regime = x >= 0.999 * x_saturated ? Regime::kHighContention
                                        : Regime::kLowContention;
  out.mean_transfer_cycles = T;
  out.hold_cycles = mean_op;
  out.latency_cycles = mean_op;
  out.throughput_ops_per_kcycle = x * 1000.0;
  out.throughput_mops =
      out.throughput_ops_per_kcycle / 1000.0 * params_.freq_ghz * 1e3;
  return out;
}

Prediction BouncingModel::predict_zipf(Primitive prim, std::uint32_t threads,
                                       double work, std::size_t n_lines,
                                       double s) const {
  Prediction out;
  out.prim = prim;
  out.threads = threads;
  out.work = work;
  if (n_lines == 0) n_lines = 1;

  const double n = static_cast<double>(std::max(1u, threads));
  const double c = params_.local_op_cycles(prim);
  if (!needs_exclusive(prim) || threads < 2) {
    return predict(prim, threads, work);
  }

  const HandoffEstimate& ho = contention_for(threads).handoff;
  const double h = ho.mean_transfer_cycles + c;
  out.mean_transfer_cycles = ho.mean_transfer_cycles;
  out.hold_cycles = h;

  // Zipf popularity weights.
  std::vector<double> p(n_lines);
  double z = 0.0;
  for (std::size_t l = 0; l < n_lines; ++l) {
    p[l] = 1.0 / std::pow(static_cast<double>(l + 1), s);
    z += p[l];
  }
  for (auto& v : p) v /= z;

  // Closed-network mean value analysis (Schweitzer approximation): each
  // line is a service channel of time h; a core's cycle is w + R where R
  // is the popularity-weighted response time. Iterate to the fixed point.
  std::vector<double> resp(n_lines, h);
  double mean_resp = h;
  for (int iter = 0; iter < 200; ++iter) {
    double next_mean = 0.0;
    for (std::size_t l = 0; l < n_lines; ++l) {
      const double util = p[l] * resp[l] / (work + mean_resp);
      resp[l] = h * (1.0 + (n - 1.0) * std::min(1.0, util));
      next_mean += p[l] * resp[l];
    }
    if (std::fabs(next_mean - mean_resp) < 1e-9) {
      mean_resp = next_mean;
      break;
    }
    mean_resp = next_mean;
  }
  const double x = n / (work + mean_resp);
  out.regime = x * h >= 0.95 ? Regime::kHighContention
                             : Regime::kLowContention;
  out.throughput_ops_per_kcycle = x * 1000.0;
  out.throughput_mops =
      out.throughput_ops_per_kcycle / 1000.0 * params_.freq_ghz * 1e3;
  out.latency_cycles = mean_resp;
  return out;
}

Prediction BouncingModel::predict_private(Primitive prim,
                                          std::uint32_t threads,
                                          double work) const {
  Prediction out;
  out.prim = prim;
  out.threads = threads;
  out.work = work;
  out.regime = Regime::kLowContention;
  const double c = params_.local_op_cycles(prim);
  out.hold_cycles = c;
  out.latency_cycles = c;
  out.throughput_ops_per_kcycle =
      static_cast<double>(threads) * 1000.0 / (work + c);
  out.throughput_mops =
      out.throughput_ops_per_kcycle / 1000.0 * params_.freq_ghz * 1e3;
  // Private lines: the core is never stalled, only busy.
  const auto& e = params_.energy;
  out.energy_per_op_nj =
      (c + work) * e.core_active_watts / (params_.freq_ghz * 1e9) * 1e9;
  return out;
}

}  // namespace am::model
