#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace am {

double percentile(std::span<const double> sample, double q) {
  if (sample.empty()) return 0.0;
  if (q <= 0.0) return *std::min_element(sample.begin(), sample.end());
  if (q >= 100.0) return *std::max_element(sample.begin(), sample.end());
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary summarize(std::span<const double> sample) {
  Summary s;
  s.count = sample.size();
  if (sample.empty()) return s;
  double sum = 0.0;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  for (double v : sample) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(sample.size());
  double ssq = 0.0;
  for (double v : sample) {
    const double d = v - s.mean;
    ssq += d * d;
  }
  s.stddev = sample.size() > 1
                 ? std::sqrt(ssq / static_cast<double>(sample.size() - 1))
                 : 0.0;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  auto pct = [&](double q) {
    const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  };
  s.p50 = pct(50.0);
  s.p90 = pct(90.0);
  s.p99 = pct(99.0);
  return s;
}

double jain_fairness(std::span<const double> shares) {
  if (shares.empty()) return 1.0;
  double sum = 0.0;
  double sumsq = 0.0;
  for (double v : shares) {
    sum += v;
    sumsq += v * v;
  }
  if (sumsq == 0.0) return 1.0;  // all-zero shares: degenerate but "equal"
  return sum * sum / (static_cast<double>(shares.size()) * sumsq);
}

double min_max_ratio(std::span<const double> shares) {
  if (shares.empty()) return 1.0;
  const auto [lo, hi] = std::minmax_element(shares.begin(), shares.end());
  if (*hi == 0.0) return 1.0;
  return *lo / *hi;
}

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

LogHistogram::LogHistogram(double lo, double hi, int per_decade) : lo_(lo) {
  if (lo <= 0.0 || hi <= lo || per_decade <= 0) {
    throw std::invalid_argument("LogHistogram: need 0 < lo < hi, per_decade > 0");
  }
  log_lo_ = std::log10(lo);
  log_step_ = 1.0 / static_cast<double>(per_decade);
  inv_log_step_ = static_cast<double>(per_decade);
  const double decades = std::log10(hi) - log_lo_;
  const auto regular =
      static_cast<std::size_t>(std::ceil(decades * per_decade)) + 1;
  counts_.assign(regular + 2, 0);  // +underflow +overflow
  if (lo == kCycleLo && hi == kCycleHi && per_decade == kCyclePerDecade) {
    int_table_ = cycle_table();
  }
}

const std::uint8_t* LogHistogram::cycle_table() const {
  // Every histogram of the cycle geometry computes the same index_for, so
  // whichever constructs first fills the table for all (67 buckets fit a
  // byte).
  static const std::vector<std::uint8_t> table = [this] {
    std::vector<std::uint8_t> t(kIntTableBound);
    for (std::uint32_t v = 0; v < kIntTableBound; ++v) {
      t[v] = static_cast<std::uint8_t>(index_for(static_cast<double>(v)));
    }
    return t;
  }();
  return table.data();
}

std::size_t LogHistogram::index_for(double value) const noexcept {
  if (value < lo_) return 0;  // underflow
  const double pos = (std::log10(value) - log_lo_) * inv_log_step_;
  auto idx = static_cast<std::size_t>(pos) + 1;
  if (idx >= counts_.size() - 1) return counts_.size() - 1;  // overflow
  return idx;
}

void LogHistogram::add_uncovered(double value) noexcept {
  std::size_t idx;
  if (value == memo_value_[0]) {
    idx = memo_index_[0];
  } else if (value == memo_value_[1]) {
    idx = memo_index_[1];
  } else if (value == memo_value_[2]) {
    idx = memo_index_[2];
  } else if (value == memo_value_[3]) {
    idx = memo_index_[3];
  } else {
    idx = index_for(value);
    memo_value_[memo_pos_] = value;
    memo_index_[memo_pos_] = static_cast<std::uint32_t>(idx);
    memo_pos_ = (memo_pos_ + 1) & 3;
  }
  count(idx, value);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.log_step_ != log_step_) {
    throw std::invalid_argument("LogHistogram::merge: incompatible geometry");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.total_ > 0) {
    if (total_ == 0) {
      min_seen_ = other.min_seen_;
      max_seen_ = other.max_seen_;
    } else {
      min_seen_ = std::min(min_seen_, other.min_seen_);
      max_seen_ = std::max(max_seen_, other.max_seen_);
    }
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

double LogHistogram::bucket_mid(std::size_t i) const {
  if (i == 0) return lo_ / 2.0;  // representative for underflow
  const double lo_edge = std::pow(10.0, log_lo_ + static_cast<double>(i - 1) * log_step_);
  const double hi_edge = std::pow(10.0, log_lo_ + static_cast<double>(i) * log_step_);
  return std::sqrt(lo_edge * hi_edge);
}

double LogHistogram::value_at_percentile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  const auto target = static_cast<std::uint64_t>(
      q / 100.0 * static_cast<double>(total_ - 1)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= target) return bucket_mid(i);
  }
  return bucket_mid(counts_.size() - 1);
}

double LogHistogram::mean() const noexcept {
  return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

// ---------------------------------------------------------------------------
// Least squares
// ---------------------------------------------------------------------------

namespace {

/// Solves A x = b in place (A is n x n, row-major). Returns false if singular.
bool solve_gauss(std::vector<std::vector<double>>& a, std::vector<double>& b) {
  const std::size_t n = a.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a[ri][c] * b[c];
    b[ri] = acc / a[ri][ri];
  }
  return true;
}

}  // namespace

LeastSquaresFit least_squares(const std::vector<std::vector<double>>& rows,
                              std::span<const double> y) {
  LeastSquaresFit fit;
  if (rows.empty() || rows.size() != y.size()) return fit;
  const std::size_t k = rows.front().size();
  if (k == 0) return fit;
  for (const auto& r : rows) {
    if (r.size() != k) return fit;
  }

  // Normal equations: (X^T X) beta = X^T y.
  std::vector<std::vector<double>> xtx(k, std::vector<double>(k, 0.0));
  std::vector<double> xty(k, 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t a = 0; a < k; ++a) {
      xty[a] += rows[i][a] * y[i];
      for (std::size_t b = 0; b < k; ++b) xtx[a][b] += rows[i][a] * rows[i][b];
    }
  }
  std::vector<double> beta = xty;
  if (!solve_gauss(xtx, beta)) return fit;

  const double ymean =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double pred = 0.0;
    for (std::size_t a = 0; a < k; ++a) pred += rows[i][a] * beta[a];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - ymean) * (y[i] - ymean);
  }
  fit.coefficients = std::move(beta);
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  fit.ok = true;
  return fit;
}

double mape(std::span<const double> predicted, std::span<const double> actual) {
  if (predicted.size() != actual.size() || predicted.empty()) return 0.0;
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) continue;
    acc += std::fabs((predicted[i] - actual[i]) / actual[i]);
    ++n;
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

double max_relative_error(std::span<const double> predicted,
                          std::span<const double> actual) {
  if (predicted.size() != actual.size()) return 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) continue;
    worst = std::max(worst, std::fabs((predicted[i] - actual[i]) / actual[i]));
  }
  return worst;
}

}  // namespace am
