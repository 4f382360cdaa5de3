#include "util/time_util.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace esched {

namespace {
// Floor division / modulo that behave sanely for negative times.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
std::int64_t floor_mod(std::int64_t a, std::int64_t b) {
  return a - floor_div(a, b) * b;
}
}  // namespace

DurationSec second_of_day(TimeSec t) { return floor_mod(t, kSecondsPerDay); }

int hour_of_day(TimeSec t) {
  return static_cast<int>(second_of_day(t) / kSecondsPerHour);
}

std::int64_t day_index(TimeSec t) { return floor_div(t, kSecondsPerDay); }

std::int64_t month_index(TimeSec t) { return floor_div(t, kSecondsPerMonth); }

TimeSec start_of_day(TimeSec t) { return day_index(t) * kSecondsPerDay; }

TimeSec next_tick_at_or_after(TimeSec t, DurationSec interval) {
  ESCHED_REQUIRE(interval > 0, "tick interval must be positive");
  const std::int64_t k = floor_div(t + interval - 1, interval);
  return k * interval;
}

std::string format_time(TimeSec t) {
  const std::int64_t day = day_index(t);
  const DurationSec sod = second_of_day(t);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lldd %02lld:%02lld:%02lld",
                static_cast<long long>(day),
                static_cast<long long>(sod / 3600),
                static_cast<long long>((sod % 3600) / 60),
                static_cast<long long>(sod % 60));
  return buf;
}

std::string format_time_of_day(DurationSec sec_of_day) {
  ESCHED_REQUIRE(sec_of_day >= 0 && sec_of_day < kSecondsPerDay,
                 "second-of-day out of range");
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02lld:%02lld",
                static_cast<long long>(sec_of_day / 3600),
                static_cast<long long>((sec_of_day % 3600) / 60));
  return buf;
}

std::string format_duration(DurationSec d) {
  const bool neg = d < 0;
  if (neg) d = -d;
  char buf[64];
  if (d >= kSecondsPerDay) {
    std::snprintf(buf, sizeof buf, "%s%lldd %lldh %02lldm",
                  neg ? "-" : "", static_cast<long long>(d / kSecondsPerDay),
                  static_cast<long long>((d % kSecondsPerDay) / 3600),
                  static_cast<long long>((d % 3600) / 60));
  } else if (d >= 3600) {
    std::snprintf(buf, sizeof buf, "%s%lldh %02lldm %02llds",
                  neg ? "-" : "", static_cast<long long>(d / 3600),
                  static_cast<long long>((d % 3600) / 60),
                  static_cast<long long>(d % 60));
  } else {
    std::snprintf(buf, sizeof buf, "%s%lldm %02llds", neg ? "-" : "",
                  static_cast<long long>(d / 60),
                  static_cast<long long>(d % 60));
  }
  return buf;
}

}  // namespace esched
