#include "power/pricing.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::power {

std::string to_string(PricePeriod period) {
  return period == PricePeriod::kOnPeak ? "on-peak" : "off-peak";
}

// ---------------------------------------------------------------- Flat ----

FlatPricing::FlatPricing(Money price_per_kwh) : price_(price_per_kwh) {
  ESCHED_REQUIRE(price_ > 0.0, "flat price must be positive");
}

Money FlatPricing::price_at(TimeSec) const { return price_; }

PricePeriod FlatPricing::period_at(TimeSec) const {
  return PricePeriod::kOffPeak;
}

TimeSec FlatPricing::next_price_change(TimeSec t) const {
  // No changes ever; report the next day boundary so billing still splits
  // per day (it needs day boundaries for per-day bills anyway).
  return start_of_day(t) + kSecondsPerDay;
}

std::string FlatPricing::name() const { return "flat"; }

// ----------------------------------------------------------- On/Off-peak --

OnOffPeakPricing::OnOffPeakPricing(Money off_peak_price_per_kwh, double ratio,
                                   DurationSec on_peak_start,
                                   DurationSec on_peak_end,
                                   bool weekends_off_peak,
                                   DurationSec tz_offset)
    : off_price_(off_peak_price_per_kwh),
      on_price_(off_peak_price_per_kwh * ratio),
      on_start_(on_peak_start),
      on_end_(on_peak_end),
      weekends_off_peak_(weekends_off_peak),
      tz_offset_(tz_offset) {
  ESCHED_REQUIRE(off_price_ > 0.0, "off-peak price must be positive");
  ESCHED_REQUIRE(ratio >= 1.0, "on/off ratio must be >= 1");
  ESCHED_REQUIRE(on_start_ >= 0 && on_start_ < on_end_ &&
                     on_end_ <= kSecondsPerDay,
                 "on-peak window must lie within one day");
  ESCHED_REQUIRE(tz_offset_ > -kSecondsPerDay && tz_offset_ < kSecondsPerDay,
                 "tz offset must stay within one day");
}

PricePeriod OnOffPeakPricing::period_at(TimeSec t) const {
  const TimeSec local = t + tz_offset_;
  if (weekends_off_peak_ && day_index(local) % 7 >= 5) {
    return PricePeriod::kOffPeak;
  }
  const DurationSec sod = second_of_day(local);
  return (sod >= on_start_ && sod < on_end_) ? PricePeriod::kOnPeak
                                             : PricePeriod::kOffPeak;
}

Money OnOffPeakPricing::price_at(TimeSec t) const {
  return period_at(t) == PricePeriod::kOnPeak ? on_price_ : off_price_;
}

TimeSec OnOffPeakPricing::next_price_change(TimeSec t) const {
  // Compute the boundary on the local clock, then translate back.
  const TimeSec local = t + tz_offset_;
  const TimeSec day = start_of_day(local);
  if (weekends_off_peak_ && day_index(local) % 7 >= 5) {
    // Flat all weekend; the next possible change is the next midnight.
    return day + kSecondsPerDay - tz_offset_;
  }
  const DurationSec sod = second_of_day(local);
  if (sod < on_start_) return day + on_start_ - tz_offset_;
  if (sod < on_end_ && on_end_ < kSecondsPerDay) {
    return day + on_end_ - tz_offset_;
  }
  return day + kSecondsPerDay - tz_offset_;
}

std::string OnOffPeakPricing::name() const {
  return "on/off-peak(" + format_time_of_day(on_start_) + "-" +
         (on_end_ == kSecondsPerDay ? "24:00" : format_time_of_day(on_end_)) +
         ")";
}

// ------------------------------------------------------------------ TOU ---

TouPricing::TouPricing(std::vector<Tier> tiers, Money on_peak_threshold,
                       DurationSec tz_offset)
    : tiers_(std::move(tiers)),
      threshold_(on_peak_threshold),
      tz_offset_(tz_offset) {
  ESCHED_REQUIRE(tz_offset_ > -kSecondsPerDay && tz_offset_ < kSecondsPerDay,
                 "tz offset must stay within one day");
  ESCHED_REQUIRE(!tiers_.empty(), "TOU tariff needs at least one tier");
  ESCHED_REQUIRE(tiers_.front().start_of_day == 0,
                 "first TOU tier must start at midnight");
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    ESCHED_REQUIRE(tiers_[i].price_per_kwh > 0.0,
                   "TOU tier price must be positive");
    ESCHED_REQUIRE(tiers_[i].start_of_day >= 0 &&
                       tiers_[i].start_of_day < kSecondsPerDay,
                   "TOU tier start outside the day");
    if (i > 0) {
      ESCHED_REQUIRE(tiers_[i].start_of_day > tiers_[i - 1].start_of_day,
                     "TOU tiers must be strictly increasing");
    }
  }
}

const TouPricing::Tier& TouPricing::tier_at(TimeSec t) const {
  const DurationSec sod = second_of_day(t + tz_offset_);
  // Last tier whose start <= sod.
  auto it = std::upper_bound(
      tiers_.begin(), tiers_.end(), sod,
      [](DurationSec v, const Tier& tier) { return v < tier.start_of_day; });
  return *(it - 1);
}

Money TouPricing::price_at(TimeSec t) const {
  return tier_at(t).price_per_kwh;
}

PricePeriod TouPricing::period_at(TimeSec t) const {
  return price_at(t) >= threshold_ ? PricePeriod::kOnPeak
                                   : PricePeriod::kOffPeak;
}

TimeSec TouPricing::next_price_change(TimeSec t) const {
  const TimeSec local = t + tz_offset_;
  const TimeSec day = start_of_day(local);
  const DurationSec sod = second_of_day(local);
  for (const Tier& tier : tiers_) {
    if (tier.start_of_day > sod) return day + tier.start_of_day - tz_offset_;
  }
  return day + kSecondsPerDay - tz_offset_;
}

std::string TouPricing::name() const {
  return "tou(" + std::to_string(tiers_.size()) + " tiers)";
}

// --------------------------------------------------------- Hourly series --

HourlyPriceSeries::HourlyPriceSeries(std::vector<Money> hourly_prices)
    : prices_(std::move(hourly_prices)) {
  ESCHED_REQUIRE(!prices_.empty(), "price series must be non-empty");
  for (const Money p : prices_)
    ESCHED_REQUIRE(p > 0.0, "series prices must be positive");
  std::vector<Money> sorted = prices_;
  std::sort(sorted.begin(), sorted.end());
  median_ = sorted[sorted.size() / 2];
}

Money HourlyPriceSeries::price_at(TimeSec t) const {
  ESCHED_REQUIRE(t >= 0, "price series starts at t=0");
  const auto hour = static_cast<std::size_t>(
      (t / kSecondsPerHour) % static_cast<TimeSec>(prices_.size()));
  return prices_[hour];
}

PricePeriod HourlyPriceSeries::period_at(TimeSec t) const {
  return price_at(t) >= median_ ? PricePeriod::kOnPeak
                                : PricePeriod::kOffPeak;
}

TimeSec HourlyPriceSeries::next_price_change(TimeSec t) const {
  return (t / kSecondsPerHour + 1) * kSecondsPerHour;
}

std::string HourlyPriceSeries::name() const {
  return "hourly-series(" + std::to_string(prices_.size()) + "h)";
}

// ------------------------------------------------------------ Convenience -

std::unique_ptr<PricingModel> make_paper_tariff(double ratio) {
  // $0.03/kWh off-peak is a representative wholesale floor; the paper only
  // interprets relative bills, so the absolute level is immaterial (§5.3).
  return std::make_unique<OnOffPeakPricing>(0.03, ratio);
}

std::unique_ptr<PricingModel> make_pricing_by_name(const std::string& name,
                                                   Money off_peak_price,
                                                   double ratio,
                                                   DurationSec tz_offset) {
  require_pricing_name(name);
  // A flat tariff has no daily structure for an offset to shift.
  if (name == "flat") return std::make_unique<FlatPricing>(off_peak_price);
  return std::make_unique<OnOffPeakPricing>(
      off_peak_price, ratio, 12 * kSecondsPerHour, kSecondsPerDay,
      /*weekends_off_peak=*/false, tz_offset);
}

void require_pricing_name(const std::string& name) {
  if (name == "paper" || name == "onoff" || name == "flat") return;
  throw Error("unknown pricing name \"" + name +
              "\" (known: paper, onoff, flat)");
}

}  // namespace esched::power
