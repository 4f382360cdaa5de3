// Tests for the simulation-calendar helpers.
#include "util/time_util.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace esched {
namespace {

TEST(TimeUtilTest, SecondOfDayWrapsDaily) {
  EXPECT_EQ(second_of_day(0), 0);
  EXPECT_EQ(second_of_day(3601), 3601);
  EXPECT_EQ(second_of_day(kSecondsPerDay), 0);
  EXPECT_EQ(second_of_day(kSecondsPerDay + 5), 5);
  EXPECT_EQ(second_of_day(3 * kSecondsPerDay - 1), kSecondsPerDay - 1);
}

TEST(TimeUtilTest, NegativeTimesFloor) {
  EXPECT_EQ(second_of_day(-1), kSecondsPerDay - 1);
  EXPECT_EQ(day_index(-1), -1);
  EXPECT_EQ(day_index(-kSecondsPerDay), -1);
  EXPECT_EQ(day_index(-kSecondsPerDay - 1), -2);
}

TEST(TimeUtilTest, HourOfDay) {
  EXPECT_EQ(hour_of_day(0), 0);
  EXPECT_EQ(hour_of_day(12 * kSecondsPerHour), 12);
  EXPECT_EQ(hour_of_day(12 * kSecondsPerHour - 1), 11);
  EXPECT_EQ(hour_of_day(kSecondsPerDay + 13 * kSecondsPerHour), 13);
}

TEST(TimeUtilTest, DayAndMonthIndices) {
  EXPECT_EQ(day_index(0), 0);
  EXPECT_EQ(day_index(kSecondsPerDay - 1), 0);
  EXPECT_EQ(day_index(kSecondsPerDay), 1);
  EXPECT_EQ(month_index(0), 0);
  EXPECT_EQ(month_index(kSecondsPerMonth - 1), 0);
  EXPECT_EQ(month_index(kSecondsPerMonth), 1);
  EXPECT_EQ(month_index(5 * kSecondsPerMonth + 3), 5);
}

TEST(TimeUtilTest, StartOfDayAndMonth) {
  EXPECT_EQ(start_of_day(12345), 0);
  EXPECT_EQ(start_of_day(kSecondsPerDay + 1), kSecondsPerDay);
}

TEST(TimeUtilTest, NextTickAlignment) {
  EXPECT_EQ(next_tick_at_or_after(0, 10), 0);
  EXPECT_EQ(next_tick_at_or_after(1, 10), 10);
  EXPECT_EQ(next_tick_at_or_after(10, 10), 10);
  EXPECT_EQ(next_tick_at_or_after(11, 10), 20);
  EXPECT_EQ(next_tick_at_or_after(29, 30), 30);
  EXPECT_THROW(next_tick_at_or_after(0, 0), Error);
}

TEST(TimeUtilTest, Formatting) {
  EXPECT_EQ(format_time(0), "0d 00:00:00");
  EXPECT_EQ(format_time(kSecondsPerDay + 7 * 3600 + 30 * 60),
            "1d 07:30:00");
  EXPECT_EQ(format_time_of_day(0), "00:00");
  EXPECT_EQ(format_time_of_day(12 * kSecondsPerHour), "12:00");
  EXPECT_THROW(format_time_of_day(kSecondsPerDay), Error);
}

TEST(TimeUtilTest, DurationFormatting) {
  EXPECT_EQ(format_duration(65), "1m 05s");
  EXPECT_EQ(format_duration(3 * 3600 + 5 * 60 + 10), "3h 05m 10s");
  EXPECT_EQ(format_duration(2 * kSecondsPerDay + 3 * 3600 + 60),
            "2d 3h 01m");
}

}  // namespace
}  // namespace esched
