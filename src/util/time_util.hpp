// Calendar helpers on the simulation clock (TimeSec, epoch = midnight of
// day 0). The simulator uses fixed 30-day months — the paper's traces are
// reported per month and nothing in the evaluation depends on real calendar
// month lengths.
#pragma once

#include <string>

#include "util/types.hpp"

namespace esched {

/// Second-of-day in [0, 86400).
DurationSec second_of_day(TimeSec t);

/// Hour-of-day in [0, 24).
int hour_of_day(TimeSec t);

/// Day index since epoch (floor division; negative times round down).
std::int64_t day_index(TimeSec t);

/// 30-day month index since epoch.
std::int64_t month_index(TimeSec t);

/// Start of the day containing t.
TimeSec start_of_day(TimeSec t);

/// Smallest tick boundary >= t for ticks at epoch + k*interval.
TimeSec next_tick_at_or_after(TimeSec t, DurationSec interval);

/// "DdD HH:MM:SS" rendering, e.g. "12d 07:30:00".
std::string format_time(TimeSec t);

/// "HH:MM" rendering of a second-of-day value.
std::string format_time_of_day(DurationSec sec_of_day);

/// Human-readable duration, e.g. "2h 05m 10s".
std::string format_duration(DurationSec d);

}  // namespace esched
