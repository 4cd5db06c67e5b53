#include "model/cas_model.hpp"

#include <cmath>

namespace am::model {

double cas_success_deterministic(std::uint32_t threads) {
  if (threads <= 1) return 1.0;
  return 1.0 / static_cast<double>(threads);
}

SharesSuccess cas_success_from_shares(std::span<const double> grant_shares) {
  SharesSuccess out;
  out.per_core_success.assign(grant_shares.size(), 1.0);
  double total = 0.0;
  for (double q : grant_shares) total += q;
  if (total <= 0.0 || grant_shares.size() < 2) return out;

  auto mean_for = [&](double s) {
    double acc = 0.0;
    for (double q : grant_shares) {
      if (q <= 0.0) continue;
      const double intervening = total / q - 1.0;
      acc += q / total * std::pow(1.0 - s, intervening);
    }
    return acc;
  };
  // f(s) = s - mean_for(s) is increasing (mean_for decreases in s); bisect.
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid - mean_for(mid) < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double s = 0.5 * (lo + hi);
  out.mean_success = s;
  for (std::size_t i = 0; i < grant_shares.size(); ++i) {
    const double q = grant_shares[i];
    out.per_core_success[i] =
        q > 0.0 ? std::pow(1.0 - s, total / q - 1.0) : 0.0;
  }
  return out;
}

}  // namespace am::model
