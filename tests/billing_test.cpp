// Tests for the billing meter: exact integration against closed forms.
#include "power/billing.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/time_util.hpp"

namespace esched::power {
namespace {

constexpr TimeSec kNoon = 12 * kSecondsPerHour;

TEST(BillingTest, FlatTariffClosedForm) {
  FlatPricing pricing(0.10);
  BillingMeter meter(pricing, 0);
  meter.set_power(0, 1000.0);  // 1 kW
  meter.finish(kSecondsPerHour);  // for exactly one hour
  EXPECT_NEAR(meter.total_energy(), 3.6e6, 1e-6);  // 1 kWh in joules
  EXPECT_NEAR(meter.total_bill(), 0.10, 1e-12);
}

TEST(BillingTest, OnOffPeakSplitsAtNoon) {
  OnOffPeakPricing pricing(0.03, 3.0);  // off 0.03, on 0.09
  BillingMeter meter(pricing, 0);
  meter.set_power(0, 1000.0);
  meter.finish(kSecondsPerDay);  // 12h off-peak + 12h on-peak at 1 kW
  EXPECT_NEAR(meter.energy_in(PricePeriod::kOffPeak), 12.0 * 3.6e6, 1e-3);
  EXPECT_NEAR(meter.energy_in(PricePeriod::kOnPeak), 12.0 * 3.6e6, 1e-3);
  EXPECT_NEAR(meter.bill_in(PricePeriod::kOffPeak), 12.0 * 0.03, 1e-9);
  EXPECT_NEAR(meter.bill_in(PricePeriod::kOnPeak), 12.0 * 0.09, 1e-9);
  EXPECT_NEAR(meter.total_bill(), 12.0 * 0.12, 1e-9);
}

TEST(BillingTest, PowerChangesBillCorrectly) {
  OnOffPeakPricing pricing(0.03, 3.0);
  BillingMeter meter(pricing, 0);
  meter.set_power(0, 2000.0);          // 2 kW off-peak
  meter.set_power(6 * kSecondsPerHour, 500.0);  // 0.5 kW across noon
  meter.finish(18 * kSecondsPerHour);
  // 6h*2kW*0.03 + 6h*0.5kW*0.03 + 6h*0.5kW*0.09
  const double expected = 6 * 2 * 0.03 + 6 * 0.5 * 0.03 + 6 * 0.5 * 0.09;
  EXPECT_NEAR(meter.total_bill(), expected, 1e-9);
}

TEST(BillingTest, ZeroPowerCostsNothing) {
  OnOffPeakPricing pricing(0.03, 3.0);
  BillingMeter meter(pricing, 0);
  meter.finish(10 * kSecondsPerDay);
  EXPECT_DOUBLE_EQ(meter.total_bill(), 0.0);
  EXPECT_DOUBLE_EQ(meter.total_energy(), 0.0);
}

TEST(BillingTest, DailyBillsAttributeToCalendarDays) {
  FlatPricing pricing(0.10);
  BillingMeter meter(pricing, 0);
  meter.set_power(0, 1000.0);
  // 36 hours: 24 on day 0, 12 on day 1.
  meter.finish(36 * kSecondsPerHour);
  const auto& daily = meter.daily_bills();
  ASSERT_EQ(daily.size(), 2u);
  EXPECT_NEAR(daily[0], 24.0 * 0.10, 1e-9);
  EXPECT_NEAR(daily[1], 12.0 * 0.10, 1e-9);
  EXPECT_NEAR(daily[0] + daily[1], meter.total_bill(), 1e-9);
}

TEST(BillingTest, MidStreamStartTime) {
  OnOffPeakPricing pricing(0.03, 3.0);
  BillingMeter meter(pricing, kNoon);  // accounting starts at noon
  meter.set_power(kNoon, 1000.0);
  meter.finish(kNoon + 2 * kSecondsPerHour);
  EXPECT_NEAR(meter.total_bill(), 2.0 * 0.09, 1e-9);
  EXPECT_DOUBLE_EQ(meter.bill_in(PricePeriod::kOffPeak), 0.0);
}

TEST(BillingTest, RejectsMisuse) {
  FlatPricing pricing(0.10);
  BillingMeter meter(pricing, 100);
  meter.set_power(200, 1.0);
  EXPECT_THROW(meter.set_power(150, 2.0), Error);   // time went backwards
  EXPECT_THROW(meter.set_power(300, -1.0), Error);  // negative power
  meter.finish(400);
  EXPECT_THROW(meter.set_power(500, 1.0), Error);   // already finished
  EXPECT_THROW(meter.finish(500), Error);
}

// Property: splitting a constant-power interval into arbitrary sub-segments
// never changes any accumulated total (exactness of the integrator).
class SegmentSplitProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SegmentSplitProperty, SplitInvariance) {
  OnOffPeakPricing pricing(0.03, 4.0);
  const TimeSec end = 3 * kSecondsPerDay;

  BillingMeter whole(pricing, 0);
  whole.set_power(0, 750.0);
  whole.finish(end);

  Rng rng(GetParam());
  BillingMeter split(pricing, 0);
  split.set_power(0, 750.0);
  TimeSec t = 0;
  while (t < end) {
    t = std::min<TimeSec>(end, t + rng.uniform_int(1, 7000));
    if (t < end) split.set_power(t, 750.0);  // same power, extra cut
  }
  split.finish(end);

  EXPECT_NEAR(split.total_bill(), whole.total_bill(), 1e-9);
  EXPECT_NEAR(split.total_energy(), whole.total_energy(), 1e-6);
  EXPECT_NEAR(split.bill_in(PricePeriod::kOnPeak),
              whole.bill_in(PricePeriod::kOnPeak), 1e-9);
  ASSERT_EQ(split.daily_bills().size(), whole.daily_bills().size());
  for (std::size_t d = 0; d < whole.daily_bills().size(); ++d)
    EXPECT_NEAR(split.daily_bills()[d], whole.daily_bills()[d], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentSplitProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(BillingTest, HourlySeriesIntegration) {
  HourlyPriceSeries pricing({0.02, 0.04});  // alternating hours
  BillingMeter meter(pricing, 0);
  meter.set_power(0, 1000.0);
  meter.finish(4 * kSecondsPerHour);
  EXPECT_NEAR(meter.total_bill(), 2 * 0.02 + 2 * 0.04, 1e-9);
}

TEST(BillingTest, CustomPeakWindowIntegration) {
  // Off-peak 0.02 until 06:00, then on-peak 0.05 for the rest of the day.
  OnOffPeakPricing pricing(0.02, 2.5, 6 * kSecondsPerHour, kSecondsPerDay);
  BillingMeter meter(pricing, 0);
  meter.set_power(0, 1000.0);
  meter.finish(kSecondsPerDay);
  EXPECT_NEAR(meter.total_bill(), 6 * 0.02 + 18 * 0.05, 1e-9);
}

}  // namespace
}  // namespace esched::power
