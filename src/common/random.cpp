#include "common/random.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace am {

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: s must be >= 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // guard against rounding keeping it just below 1

  // About four buckets per index keeps the scan to a step or two on the
  // tail; the cap bounds the table for very large n.
  const std::size_t k = std::min<std::size_t>(std::bit_ceil(n) * 4, 1u << 16);
  buckets_ = static_cast<double>(k);
  guide_.resize(k + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j <= k; ++j) {
    const double edge = static_cast<double>(j) / buckets_;
    while (cdf_[i] < edge) ++i;  // cdf_.back() == 1.0 >= every edge
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace am
