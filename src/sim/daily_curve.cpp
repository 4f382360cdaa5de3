#include "sim/daily_curve.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::sim {

DailyCurveAccumulator::DailyCurveAccumulator(std::size_t bins)
    : value_seconds_(bins, 0.0), observed_seconds_(bins, 0.0) {
  ESCHED_REQUIRE(bins >= 1, "need at least one bin");
  ESCHED_REQUIRE(kSecondsPerDay % static_cast<DurationSec>(bins) == 0,
                 "bins must divide the day evenly");
}

void DailyCurveAccumulator::add_segment(TimeSec t0, TimeSec t1,
                                        double value) {
  ESCHED_REQUIRE(t0 <= t1, "segment must run forward");
  const auto bins = static_cast<DurationSec>(value_seconds_.size());
  const DurationSec bin_width = kSecondsPerDay / bins;
  TimeSec t = t0;
  while (t < t1) {
    const DurationSec sod = second_of_day(t);
    const std::size_t bin = static_cast<std::size_t>(sod / bin_width);
    // End of this bin occurrence in absolute time.
    const TimeSec bin_end =
        t + (static_cast<DurationSec>(bin + 1) * bin_width - sod);
    const TimeSec seg_end = std::min(t1, bin_end);
    const auto dt = static_cast<double>(seg_end - t);
    value_seconds_[bin] += value * dt;
    observed_seconds_[bin] += dt;
    t = seg_end;
  }
}

double DailyCurveAccumulator::average(std::size_t i) const {
  ESCHED_REQUIRE(i < value_seconds_.size(), "bin out of range");
  return observed_seconds_[i] > 0.0 ? value_seconds_[i] / observed_seconds_[i]
                                    : 0.0;
}

std::vector<double> DailyCurveAccumulator::averages() const {
  std::vector<double> out(value_seconds_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = average(i);
  return out;
}

}  // namespace esched::sim
