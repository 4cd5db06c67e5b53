// Statistics toolkit used throughout the measurement engine and the model:
// summary statistics, latency histograms,
// fairness indices (the paper reports fairness as one of its four metrics),
// and small-scale least-squares fitting used by model calibration.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace am {

/// Five-number-style summary of a sample, plus moments.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Computes a Summary over @p sample. Does not need the input sorted.
Summary summarize(std::span<const double> sample);

/// Linear-interpolated percentile (q in [0,100]) of @p sample.
/// The input is copied and sorted internally.
double percentile(std::span<const double> sample, double q);

/// Jain's fairness index over per-thread shares x_i:
///   J = (sum x_i)^2 / (n * sum x_i^2), in (0, 1]; 1 == perfectly fair.
/// This is the fairness metric used for the paper's fairness figures.
double jain_fairness(std::span<const double> shares);

/// min(x)/max(x) over per-thread shares — a second, stricter fairness view:
/// 1 means every thread completed the same number of operations.
double min_max_ratio(std::span<const double> shares);

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log-spaced histogram for latency samples. Buckets grow geometrically so a
/// single histogram spans L1-hit latencies (~tens of cycles) through
/// cross-socket bounce storms (~tens of thousands of cycles).
class LogHistogram {
 public:
  /// Geometry of cycle-latency histograms (sim::ThreadStats). A histogram
  /// built with it reads the bucket of an integer sample below
  /// kIntTableBound from one process-wide, immutable table that index_for
  /// fills once, instead of taking a log10.
  static constexpr double kCycleLo = 1.0;
  static constexpr double kCycleHi = 1e8;
  static constexpr int kCyclePerDecade = 8;
  static constexpr std::uint32_t kIntTableBound = 1u << 14;

  /// @param lo       lower edge of the first bucket (> 0)
  /// @param hi       upper edge of the last regular bucket
  /// @param per_decade number of buckets per decade (resolution)
  LogHistogram(double lo, double hi, int per_decade = 16);

  void add(double value) noexcept {
    if (int_table_ != nullptr && value >= 0.0 && value < kIntTableBound) {
      const auto i = static_cast<std::uint32_t>(value);
      if (static_cast<double>(i) == value) {
        count(int_table_[i], value);
        return;
      }
    }
    add_uncovered(value);
  }
  void merge(const LogHistogram& other);

  std::uint64_t total_count() const noexcept { return total_; }
  double value_at_percentile(double q) const;
  double observed_min() const noexcept { return min_seen_; }
  double observed_max() const noexcept { return max_seen_; }
  double mean() const noexcept;

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  /// Geometric midpoint of bucket @p i (representative value).
  double bucket_mid(std::size_t i) const;

  /// The bucket add() counts @p value in, computed from the geometry alone
  /// (no table, no memo).
  std::size_t index_for(double value) const noexcept;

 private:
  /// The cycle geometry's integer table (filled by the first caller).
  const std::uint8_t* cycle_table() const;
  /// add() for a sample the table does not cover: the memo, then index_for.
  void add_uncovered(double value) noexcept;
  void count(std::size_t idx, double value) noexcept {
    ++counts_[idx];
    if (total_ == 0) {
      min_seen_ = max_seen_ = value;
    } else {
      min_seen_ = std::min(min_seen_, value);
      max_seen_ = std::max(max_seen_, value);
    }
    ++total_;
    sum_ += value;
  }

  double lo_;
  double log_lo_;
  double inv_log_step_;
  double log_step_;
  // Memo of recent bucket lookups: latency streams draw from a handful of
  // repeating values (an uncontended op completes in the same cycle count
  // every time; a sharded group alternates between a few transfer
  // distances), and index_for() pays a log10 per miss. Four slots with
  // round-robin replacement cover the alternating patterns a single-entry
  // memo thrashes on. Initialised to a consistent pair: index_for(-1.0) is
  // the underflow bucket. Samples int_table_ covers skip it.
  double memo_value_[4] = {-1.0, -1.0, -1.0, -1.0};
  std::uint32_t memo_index_[4] = {0, 0, 0, 0};
  std::uint32_t memo_pos_ = 0;
  /// cycle_table() for the cycle geometry, else nullptr.
  const std::uint8_t* int_table_ = nullptr;
  std::vector<std::uint64_t> counts_;  // [underflow, regular..., overflow]
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

// ---------------------------------------------------------------------------
// Least squares (model calibration)
// ---------------------------------------------------------------------------

/// Result of an ordinary-least-squares fit y ~ X * beta.
struct LeastSquaresFit {
  std::vector<double> coefficients;
  double r_squared = 0.0;
  bool ok = false;  ///< false when the normal equations were singular
};

/// Solves min_beta ||X beta - y||_2 via normal equations with Gaussian
/// elimination and partial pivoting. Suitable for the handful of parameters
/// model calibration needs (<< 10); not a general numerical library.
///
/// @param rows  each element is one observation's regressor vector; all rows
///              must have equal length
/// @param y     observations, y.size() == rows.size()
LeastSquaresFit least_squares(const std::vector<std::vector<double>>& rows,
                              std::span<const double> y);

// ---------------------------------------------------------------------------
// Error metrics (model validation)
// ---------------------------------------------------------------------------

/// Mean absolute percentage error between prediction and reference,
/// skipping reference values of 0. Returned as a fraction (0.1 == 10%).
double mape(std::span<const double> predicted, std::span<const double> actual);

/// Largest absolute relative error over the grid (fraction).
double max_relative_error(std::span<const double> predicted,
                          std::span<const double> actual);

}  // namespace am
