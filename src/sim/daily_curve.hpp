// Time-of-day averaging of a piecewise-constant signal — the machinery
// behind the paper's Fig. 12 (average daily utilization) and Fig. 13
// (average daily power): "utilization at each time point is calculated as
// the average over the month".
//
// The accumulator receives constant-value segments [t0, t1) and integrates
// them exactly into time-of-day bins; average(i) is then the time-weighted
// mean of the signal over bin i across all observed days.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace esched::sim {

/// Exact time-of-day binned average of a piecewise-constant signal.
class DailyCurveAccumulator {
 public:
  /// `bins` uniform bins over the 24-hour day (default 96 = 15 minutes).
  /// kSecondsPerDay must be divisible by `bins`.
  explicit DailyCurveAccumulator(std::size_t bins = 96);

  /// Integrate a constant `value` over [t0, t1). Segments may span any
  /// number of days and may be fed in any order.
  void add_segment(TimeSec t0, TimeSec t1, double value);

  std::size_t bin_count() const { return value_seconds_.size(); }
  /// Time-weighted mean of the signal in bin i; 0 if the bin was never
  /// covered.
  double average(std::size_t i) const;

  /// The full curve as a vector of bin averages.
  std::vector<double> averages() const;

 private:
  std::vector<double> value_seconds_;     // ∫ value dt per bin
  std::vector<double> observed_seconds_;  // ∫ dt per bin
};

}  // namespace esched::sim
