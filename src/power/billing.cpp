#include "power/billing.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::power {

BillingMeter::BillingMeter(const PricingModel& pricing, TimeSec start,
                           const FacilityModel* facility)
    : pricing_(pricing), facility_(facility), cursor_(start) {}

void BillingMeter::set_power(TimeSec t, Watts watts) {
  ESCHED_REQUIRE(!finished_, "BillingMeter already finished");
  ESCHED_REQUIRE(t >= cursor_, "BillingMeter fed out-of-order time");
  ESCHED_REQUIRE(watts >= 0.0, "negative system power");
  integrate_to(t);
  power_ = watts;
}

void BillingMeter::finish(TimeSec t) {
  ESCHED_REQUIRE(!finished_, "BillingMeter already finished");
  ESCHED_REQUIRE(t >= cursor_, "BillingMeter fed out-of-order time");
  integrate_to(t);
  finished_ = true;
}

void BillingMeter::refresh_segment() {
  // Split at price changes *and* day boundaries: per-day bills need the
  // day split even when the price is continuous across midnight.
  const TimeSec price_edge = pricing_.next_price_change(cursor_);
  ESCHED_REQUIRE(price_edge > cursor_,
                 "pricing model returned a non-advancing boundary");
  const TimeSec day_edge = start_of_day(cursor_) + kSecondsPerDay;
  seg_begin_ = cursor_;
  seg_end_ = std::min(price_edge, day_edge);
  seg_price_ = pricing_.price_at(cursor_);
  seg_period_ = pricing_.period_at(cursor_);
  seg_day_ = static_cast<std::size_t>(day_index(cursor_));
}

void BillingMeter::integrate_to(TimeSec t) {
  while (cursor_ < t) {
    if (cursor_ >= seg_end_ || cursor_ < seg_begin_) refresh_segment();
    const TimeSec seg_end = std::min(t, seg_end_);

    const auto seconds = static_cast<double>(seg_end - cursor_);
    const Watts billed_watts =
        facility_ != nullptr ? facility_->facility_watts(power_, cursor_)
                             : power_;
    const Joules joules = billed_watts * seconds;
    const Money cost = joules_to_kwh(joules) * seg_price_;

    energy_total_ += joules;
    it_energy_total_ += power_ * seconds;
    bill_total_ += cost;
    if (seg_period_ == PricePeriod::kOnPeak) {
      energy_on_ += joules;
      bill_on_ += cost;
    } else {
      energy_off_ += joules;
      bill_off_ += cost;
    }
    if (daily_.size() <= seg_day_) daily_.resize(seg_day_ + 1, 0.0);
    daily_[seg_day_] += cost;

    cursor_ = seg_end;
  }
}

Money BillingMeter::bill_in(PricePeriod period) const {
  return period == PricePeriod::kOnPeak ? bill_on_ : bill_off_;
}

Joules BillingMeter::energy_in(PricePeriod period) const {
  return period == PricePeriod::kOnPeak ? energy_on_ : energy_off_;
}

}  // namespace esched::power
