// Tests for the time-of-day curve accumulator behind Figs. 12/13.
#include "sim/daily_curve.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::sim {
namespace {

TEST(DailyCurveTest, SingleBinSegment) {
  DailyCurveAccumulator acc(24);  // hourly bins
  acc.add_segment(0, kSecondsPerHour, 10.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 10.0);
  EXPECT_DOUBLE_EQ(acc.average(1), 0.0);  // never covered
}

TEST(DailyCurveTest, SegmentSpanningBins) {
  DailyCurveAccumulator acc(24);
  // 30 minutes in hour 0, full hour 1, 30 minutes of hour 2.
  acc.add_segment(1800, 2 * kSecondsPerHour + 1800, 4.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 4.0);
  EXPECT_DOUBLE_EQ(acc.average(1), 4.0);
  EXPECT_DOUBLE_EQ(acc.average(2), 4.0);
  // Each partial bin holds exactly 1800 s: an equal stretch at 0 halves it.
  acc.add_segment(0, 1800, 0.0);
  acc.add_segment(2 * kSecondsPerHour + 1800, 3 * kSecondsPerHour, 0.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 2.0);
  EXPECT_DOUBLE_EQ(acc.average(2), 2.0);
}

TEST(DailyCurveTest, MultiDayAveraging) {
  DailyCurveAccumulator acc(24);
  // Day 0 hour 0 at 10, day 1 hour 0 at 30 -> average 20.
  acc.add_segment(0, kSecondsPerHour, 10.0);
  acc.add_segment(kSecondsPerDay, kSecondsPerDay + kSecondsPerHour, 30.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 20.0);
}

TEST(DailyCurveTest, PartialCoverageWeightsByTime) {
  DailyCurveAccumulator acc(24);
  // 15 min at 0, 45 min at 8 within the same hour: mean = (900*0 + 2700*8)
  // / 3600 = 6.
  acc.add_segment(0, 900, 0.0);
  acc.add_segment(900, 3600, 8.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 6.0);
}

TEST(DailyCurveTest, WholeDaySegment) {
  DailyCurveAccumulator acc(96);
  acc.add_segment(0, kSecondsPerDay, 7.5);
  for (std::size_t b = 0; b < acc.bin_count(); ++b) {
    EXPECT_DOUBLE_EQ(acc.average(b), 7.5);
  }
}

TEST(DailyCurveTest, BinStartsAndVectorOutput) {
  DailyCurveAccumulator acc(4);  // 6-hour bins
  // Bin 1 starts at 06:00 and bin 3 at 18:00.
  acc.add_segment(6 * kSecondsPerHour, 12 * kSecondsPerHour, 1.0);
  acc.add_segment(18 * kSecondsPerHour, kSecondsPerDay, 3.0);
  EXPECT_EQ(acc.averages(), (std::vector<double>{0.0, 1.0, 0.0, 3.0}));
  acc.add_segment(0, kSecondsPerDay, 1.0);
  const auto v = acc.averages();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[3], 2.0);
}

TEST(DailyCurveTest, ZeroLengthSegmentIsNoop) {
  DailyCurveAccumulator acc(24);
  acc.add_segment(100, 100, 42.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 0.0);
  // It added no weight either: a later segment alone sets the average.
  acc.add_segment(0, kSecondsPerHour, 2.0);
  EXPECT_DOUBLE_EQ(acc.average(0), 2.0);
}

TEST(DailyCurveTest, Validation) {
  EXPECT_THROW(DailyCurveAccumulator(0), Error);
  EXPECT_THROW(DailyCurveAccumulator(7), Error);  // 7 doesn't divide 86400
  DailyCurveAccumulator acc(24);
  EXPECT_THROW(acc.add_segment(100, 50, 1.0), Error);
  EXPECT_THROW(acc.average(24), Error);
}

}  // namespace
}  // namespace esched::sim
