// Electricity billing: exact integration of price(t) * power(t).
//
// System power is piecewise constant between job start/finish events, so
// the meter integrates each constant-power segment against the tariff,
// splitting at every price change and at day boundaries (the paper's
// simulator "sums up electricity bill on a daily basis", §5.5). All
// accumulation is exact up to floating point; there is no sampling error.
#pragma once

#include <vector>

#include "power/facility.hpp"
#include "power/pricing.hpp"
#include "util/types.hpp"

namespace esched::power {

/// Integrates the electricity bill of a piecewise-constant power signal.
/// Feed monotone (time, power) change-points via set_power(), then call
/// finish() once with the end of the accounting horizon.
class BillingMeter {
 public:
  /// Accounting starts at `start` with zero power. `pricing` (and
  /// `facility`, when given) must outlive the meter. With a facility
  /// model, set_power() still receives *IT* watts; the meter bills
  /// facility watts (see power/facility.hpp for the exactness contract)
  /// and every energy/bill accessor reports facility quantities;
  /// it_energy() reports the raw IT integral.
  BillingMeter(const PricingModel& pricing, TimeSec start,
               const FacilityModel* facility = nullptr);

  /// Record that total system power becomes `watts` at time `t` (t must be
  /// >= the previous change-point). The interval since the previous
  /// change-point is billed at the previous power level.
  void set_power(TimeSec t, Watts watts);

  /// Close the accounting horizon at `t`, billing the final segment.
  /// Further set_power calls are rejected.
  void finish(TimeSec t);

  /// Total bill so far (currency units of the tariff).
  Money total_bill() const { return bill_total_; }
  /// Total billed (facility) energy so far in joules.
  Joules total_energy() const { return energy_total_; }
  /// Raw IT energy (equals total_energy() without a facility model).
  Joules it_energy() const { return it_energy_total_; }
  /// Bill accrued during the given price period.
  Money bill_in(PricePeriod period) const;
  /// Energy consumed during the given price period (joules).
  Joules energy_in(PricePeriod period) const;

  /// Bill per day index (day 0 = simulation epoch). Days the meter never
  /// touched are 0.
  const std::vector<Money>& daily_bills() const { return daily_; }

 private:
  void integrate_to(TimeSec t);
  /// Recompute the segment cache for the segment containing cursor_.
  void refresh_segment();

  const PricingModel& pricing_;
  const FacilityModel* facility_;
  TimeSec cursor_;
  Watts power_ = 0.0;
  bool finished_ = false;

  /// Cache of the current homogeneous segment [seg_begin_, seg_end_):
  /// no price change or day boundary inside, so price/period/day are
  /// constant across it. Pure memoization of values integrate_to would
  /// recompute — identical values, identical FP operations — so the
  /// accumulated totals are bit-identical with or without it.
  TimeSec seg_begin_ = 0;
  TimeSec seg_end_ = 0;  ///< begin == end marks the cache invalid
  Money seg_price_ = 0.0;
  PricePeriod seg_period_ = PricePeriod::kOffPeak;
  std::size_t seg_day_ = 0;

  Money bill_total_ = 0.0;
  Joules energy_total_ = 0.0;
  Joules it_energy_total_ = 0.0;
  Money bill_on_ = 0.0;
  Money bill_off_ = 0.0;
  Joules energy_on_ = 0.0;
  Joules energy_off_ = 0.0;
  std::vector<Money> daily_;
};

}  // namespace esched::power
