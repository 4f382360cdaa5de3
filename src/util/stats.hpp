// Small statistics helpers used by trace analysis and metric computation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace esched {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  /// Add one observation.
  void add(double x);

  /// Number of observations added.
  std::size_t count() const { return n_; }
  /// Arithmetic mean; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  /// Smallest observation; 0 when empty.
  double min() const { return n_ ? min_ : 0.0; }
  /// Largest observation; 0 when empty.
  double max() const { return n_ ? max_ : 0.0; }
  /// Sum of all observations.
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// q-quantile (q in [0,1]) by linear interpolation on a *copy* of the data.
/// Returns 0 for empty input.
double quantile(std::span<const double> values, double q);

}  // namespace esched
