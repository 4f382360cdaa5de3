// Tests for the electricity pricing models.
#include "power/pricing.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::power {
namespace {

constexpr TimeSec kNoon = 12 * kSecondsPerHour;

TEST(OnOffPeakTest, PaperTariffPeriods) {
  OnOffPeakPricing p(0.03, 3.0);
  // Off-peak midnight..noon, on-peak noon..midnight (paper §5.3).
  EXPECT_EQ(p.period_at(0), PricePeriod::kOffPeak);
  EXPECT_EQ(p.period_at(kNoon - 1), PricePeriod::kOffPeak);
  EXPECT_EQ(p.period_at(kNoon), PricePeriod::kOnPeak);
  EXPECT_EQ(p.period_at(kSecondsPerDay - 1), PricePeriod::kOnPeak);
  EXPECT_EQ(p.period_at(kSecondsPerDay), PricePeriod::kOffPeak);
  // Repeats on later days.
  EXPECT_EQ(p.period_at(5 * kSecondsPerDay + kNoon + 10),
            PricePeriod::kOnPeak);
}

TEST(OnOffPeakTest, PricesFollowRatio) {
  OnOffPeakPricing p(0.05, 4.0);
  EXPECT_DOUBLE_EQ(p.price_at(0), 0.05);
  EXPECT_DOUBLE_EQ(p.price_at(kNoon), 0.20);
  EXPECT_DOUBLE_EQ(p.off_peak_price(), 0.05);
  EXPECT_DOUBLE_EQ(p.on_peak_price(), 0.20);
}

TEST(OnOffPeakTest, NextPriceChangeBoundaries) {
  OnOffPeakPricing p(0.03, 3.0);
  EXPECT_EQ(p.next_price_change(0), kNoon);
  EXPECT_EQ(p.next_price_change(kNoon - 1), kNoon);
  EXPECT_EQ(p.next_price_change(kNoon), kSecondsPerDay);
  EXPECT_EQ(p.next_price_change(kSecondsPerDay - 1), kSecondsPerDay);
  EXPECT_EQ(p.next_price_change(kSecondsPerDay), kSecondsPerDay + kNoon);
}

TEST(OnOffPeakTest, CustomWindow) {
  // On-peak 08:00-18:00.
  OnOffPeakPricing p(0.03, 2.0, 8 * kSecondsPerHour, 18 * kSecondsPerHour);
  EXPECT_EQ(p.period_at(7 * kSecondsPerHour), PricePeriod::kOffPeak);
  EXPECT_EQ(p.period_at(8 * kSecondsPerHour), PricePeriod::kOnPeak);
  EXPECT_EQ(p.period_at(18 * kSecondsPerHour), PricePeriod::kOffPeak);
  EXPECT_EQ(p.next_price_change(0), 8 * kSecondsPerHour);
  EXPECT_EQ(p.next_price_change(9 * kSecondsPerHour), 18 * kSecondsPerHour);
  EXPECT_EQ(p.next_price_change(20 * kSecondsPerHour), kSecondsPerDay);
}

TEST(OnOffPeakTest, RejectsBadParameters) {
  EXPECT_THROW(OnOffPeakPricing(0.0, 3.0), Error);
  EXPECT_THROW(OnOffPeakPricing(0.03, 0.5), Error);
  EXPECT_THROW(OnOffPeakPricing(0.03, 3.0, kNoon, kNoon), Error);
  EXPECT_THROW(OnOffPeakPricing(0.03, 3.0, 0, kSecondsPerDay + 1), Error);
}

// Property sweep over the paper's pricing ratios: price never leaves
// {off, off*ratio} and the period labelling matches the dearer price.
class RatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(RatioSweep, PriceAlwaysConsistentWithPeriod) {
  const double ratio = GetParam();
  OnOffPeakPricing p(0.03, ratio);
  for (TimeSec t = 0; t < 2 * kSecondsPerDay; t += 977) {
    const Money price = p.price_at(t);
    if (p.period_at(t) == PricePeriod::kOnPeak) {
      EXPECT_DOUBLE_EQ(price, 0.03 * ratio);
    } else {
      EXPECT_DOUBLE_EQ(price, 0.03);
    }
  }
}

TEST_P(RatioSweep, BoundariesAdvanceAndAgree) {
  const double ratio = GetParam();
  OnOffPeakPricing p(0.03, ratio);
  TimeSec t = 0;
  for (int i = 0; i < 50; ++i) {
    const TimeSec next = p.next_price_change(t);
    ASSERT_GT(next, t);
    // Price is constant inside (t, next).
    EXPECT_DOUBLE_EQ(p.price_at(t), p.price_at(next - 1));
    t = next;
  }
  EXPECT_EQ(t, 25 * kSecondsPerDay);  // two boundaries per day
}

INSTANTIATE_TEST_SUITE_P(PaperRatios, RatioSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0, 5.0, 10.0));

TEST(OnOffPeakTest, WeekendsCanBeOffPeak) {
  OnOffPeakPricing p(0.03, 3.0, 12 * kSecondsPerHour, kSecondsPerDay,
                     /*weekends_off_peak=*/true);
  // Day 0-4 are weekdays, 5-6 weekend (epoch convention).
  const TimeSec weekday_afternoon = 2 * kSecondsPerDay + 15 * kSecondsPerHour;
  const TimeSec saturday_afternoon = 5 * kSecondsPerDay + 15 * kSecondsPerHour;
  const TimeSec sunday_morning = 6 * kSecondsPerDay + 3 * kSecondsPerHour;
  EXPECT_EQ(p.period_at(weekday_afternoon), PricePeriod::kOnPeak);
  EXPECT_EQ(p.period_at(saturday_afternoon), PricePeriod::kOffPeak);
  EXPECT_EQ(p.period_at(sunday_morning), PricePeriod::kOffPeak);
  EXPECT_DOUBLE_EQ(p.price_at(saturday_afternoon), 0.03);
  // Weekend boundaries collapse to midnights.
  EXPECT_EQ(p.next_price_change(saturday_afternoon), 6 * kSecondsPerDay);
  // The following Monday behaves like a weekday again.
  EXPECT_EQ(p.period_at(7 * kSecondsPerDay + 15 * kSecondsPerHour),
            PricePeriod::kOnPeak);
}

TEST(OnOffPeakTest, WeekendFlagOffKeepsWeekendOnPeak) {
  OnOffPeakPricing p(0.03, 3.0);
  const TimeSec saturday_afternoon = 5 * kSecondsPerDay + 15 * kSecondsPerHour;
  EXPECT_EQ(p.period_at(saturday_afternoon), PricePeriod::kOnPeak);
}

TEST(FlatPricingTest, ConstantEverywhere) {
  FlatPricing p(0.07);
  EXPECT_DOUBLE_EQ(p.price_at(0), 0.07);
  EXPECT_DOUBLE_EQ(p.price_at(123456789), 0.07);
  EXPECT_EQ(p.period_at(kNoon + 1), PricePeriod::kOffPeak);
  EXPECT_EQ(p.next_price_change(10), kSecondsPerDay);
  EXPECT_THROW(FlatPricing(0.0), Error);
}

TEST(HourlySeriesTest, CyclesThroughPrices) {
  HourlyPriceSeries p({0.02, 0.05, 0.11});
  EXPECT_DOUBLE_EQ(p.price_at(0), 0.02);
  EXPECT_DOUBLE_EQ(p.price_at(kSecondsPerHour), 0.05);
  EXPECT_DOUBLE_EQ(p.price_at(2 * kSecondsPerHour + 30), 0.11);
  EXPECT_DOUBLE_EQ(p.price_at(3 * kSecondsPerHour), 0.02);  // wraps
  EXPECT_DOUBLE_EQ(p.median_price(), 0.05);
  EXPECT_EQ(p.period_at(0), PricePeriod::kOffPeak);
  EXPECT_EQ(p.period_at(kSecondsPerHour), PricePeriod::kOnPeak);  // >= median
  EXPECT_EQ(p.next_price_change(10), kSecondsPerHour);
  EXPECT_THROW(HourlyPriceSeries({}), Error);
  EXPECT_THROW(HourlyPriceSeries({0.0}), Error);
}

TEST(TzOffsetTest, ShiftsTheDailyWindowsAgainstSimulationTime) {
  // A center 12h east of the simulation frame: its local noon is the
  // frame's midnight, so on-peak covers frame 00:00..12:00.
  OnOffPeakPricing east(0.03, 3.0, kNoon, kSecondsPerDay,
                        /*weekends_off_peak=*/false,
                        /*tz_offset=*/12 * kSecondsPerHour);
  EXPECT_EQ(east.period_at(0), PricePeriod::kOnPeak);
  EXPECT_EQ(east.period_at(kNoon - 1), PricePeriod::kOnPeak);
  EXPECT_EQ(east.period_at(kNoon), PricePeriod::kOffPeak);
  EXPECT_EQ(east.tz_offset(), 12 * kSecondsPerHour);

  // A westward shift moves the window the other way: local time lags, so
  // frame noon is still local 09:00 — off-peak.
  OnOffPeakPricing west(0.03, 3.0, kNoon, kSecondsPerDay,
                        /*weekends_off_peak=*/false,
                        /*tz_offset=*/-3 * kSecondsPerHour);
  EXPECT_EQ(west.period_at(kNoon), PricePeriod::kOffPeak);
  EXPECT_EQ(west.period_at(kNoon + 3 * kSecondsPerHour),
            PricePeriod::kOnPeak);
  // Negative local times (frame epoch, westward shift) stay well-defined:
  // frame 00:00 is local 21:00 of the previous day — on-peak.
  EXPECT_EQ(west.period_at(0), PricePeriod::kOnPeak);
}

TEST(TzOffsetTest, NextPriceChangeReturnsSimulationFrameBoundaries) {
  OnOffPeakPricing p(0.03, 3.0, kNoon, kSecondsPerDay,
                     /*weekends_off_peak=*/false,
                     /*tz_offset=*/6 * kSecondsPerHour);
  // Local = frame + 6h: boundaries land at frame 06:00 (local noon) and
  // frame 18:00 (local midnight).
  EXPECT_EQ(p.next_price_change(0), 6 * kSecondsPerHour);
  EXPECT_EQ(p.next_price_change(6 * kSecondsPerHour),
            18 * kSecondsPerHour);
  EXPECT_EQ(p.next_price_change(18 * kSecondsPerHour),
            kSecondsPerDay + 6 * kSecondsPerHour);
  // The boundary is a fixed point of the usual invariant: the period
  // differs on the two sides of every returned instant.
  const TimeSec boundary = p.next_price_change(0);
  EXPECT_NE(p.period_at(boundary - 1), p.period_at(boundary));
}

TEST(TzOffsetTest, ZeroOffsetIsTheLegacyTariff) {
  OnOffPeakPricing shifted(0.03, 3.0, kNoon, kSecondsPerDay, false, 0);
  OnOffPeakPricing legacy(0.03, 3.0);
  for (TimeSec t = 0; t < 2 * kSecondsPerDay; t += 997) {
    ASSERT_EQ(shifted.period_at(t), legacy.period_at(t)) << t;
    ASSERT_EQ(shifted.next_price_change(t), legacy.next_price_change(t)) << t;
  }
}

TEST(TzOffsetTest, RejectsOffsetsOfADayOrMore) {
  EXPECT_THROW(OnOffPeakPricing(0.03, 3.0, kNoon, kSecondsPerDay, false,
                                kSecondsPerDay),
               Error);
  EXPECT_THROW(OnOffPeakPricing(0.03, 3.0, kNoon, kSecondsPerDay, false,
                                -kSecondsPerDay),
               Error);
}

TEST(TzOffsetTest, FactoryPassesTheOffsetThrough) {
  const auto shifted =
      make_pricing_by_name("paper", 0.03, 3.0, 12 * kSecondsPerHour);
  EXPECT_EQ(shifted->period_at(0), PricePeriod::kOnPeak);
  const auto legacy = make_pricing_by_name("paper", 0.03, 3.0);
  EXPECT_EQ(legacy->period_at(0), PricePeriod::kOffPeak);
  // Flat tariffs have no daily structure for an offset to act on.
  const auto flat = make_pricing_by_name("flat", 0.03, 3.0, kNoon);
  EXPECT_DOUBLE_EQ(flat->price_at(0), flat->price_at(kNoon));
  EXPECT_EQ(flat->period_at(0), PricePeriod::kOffPeak);
}

TEST(PaperTariffTest, FactoryMatchesDefaults) {
  const auto p = make_paper_tariff();
  EXPECT_EQ(p->period_at(0), PricePeriod::kOffPeak);
  EXPECT_EQ(p->period_at(kNoon), PricePeriod::kOnPeak);
  EXPECT_DOUBLE_EQ(p->price_at(kNoon) / p->price_at(0), 3.0);
  const auto p5 = make_paper_tariff(5.0);
  EXPECT_DOUBLE_EQ(p5->price_at(kNoon) / p5->price_at(0), 5.0);
}

}  // namespace
}  // namespace esched::power
