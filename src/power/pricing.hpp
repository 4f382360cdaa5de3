// Dynamic electricity pricing models.
//
// The paper's evaluation uses a two-level tariff: off-peak from midnight to
// noon, on-peak from noon to midnight, with on/off price ratios 3-5x
// (§5.3). The scheduler only consumes the *period* (on- vs off-peak); the
// billing meter consumes the actual price. We also provide a multi-tier
// time-of-use tariff and an arbitrary hourly price series (real-time
// wholesale markets vary hourly by up to 10x [Qureshi'09]) as extensions.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace esched::power {

/// Coarse price regime visible to the scheduler.
enum class PricePeriod {
  kOffPeak,  ///< cheap electricity: schedule power-hungry jobs
  kOnPeak,   ///< expensive electricity: schedule power-frugal jobs
};

/// Render a PricePeriod for reports.
std::string to_string(PricePeriod period);

/// Interface of an electricity tariff on the simulation clock.
class PricingModel {
 public:
  virtual ~PricingModel() = default;

  /// Price in $/kWh at time t.
  virtual Money price_at(TimeSec t) const = 0;

  /// Coarse regime at time t (what the scheduler keys its policy on).
  virtual PricePeriod period_at(TimeSec t) const = 0;

  /// Smallest boundary strictly after t at which the price can change.
  /// Billing integrates piecewise-constant power between boundaries, so
  /// this must never skip a price change; returning earlier times (e.g.
  /// hourly even for a 12-hour tariff) is allowed, just slower.
  virtual TimeSec next_price_change(TimeSec t) const = 0;

  /// Display name for reports.
  virtual std::string name() const = 0;
};

/// Constant price (degenerate tariff; baseline for "pricing off" ablations).
class FlatPricing final : public PricingModel {
 public:
  explicit FlatPricing(Money price_per_kwh);
  Money price_at(TimeSec t) const override;
  PricePeriod period_at(TimeSec t) const override;
  TimeSec next_price_change(TimeSec t) const override;
  std::string name() const override;

 private:
  Money price_;
};

/// The paper's tariff: off-peak [00:00, 12:00), on-peak [12:00, 24:00),
/// repeating daily. Constructed from the off-peak price and the on/off
/// ratio (the paper only ever varies the ratio).
class OnOffPeakPricing final : public PricingModel {
 public:
  /// `ratio` is on-peak price / off-peak price (paper default 3).
  /// `on_peak_start`/`on_peak_end` are seconds-of-day; the on-peak window
  /// must not wrap midnight (the off-peak window is its complement).
  /// With `weekends_off_peak`, days 5 and 6 of each week are entirely
  /// off-peak — the common utility-tariff shape (demand is industrial).
  /// `tz_offset` shifts the tariff's clock relative to the simulation
  /// clock (local = t + tz_offset, i.e. seconds east of the simulation's
  /// UTC): the window boundaries and weekend days move together. Must
  /// stay within ±24 h; 0 (the default) is byte-identical to before.
  OnOffPeakPricing(Money off_peak_price_per_kwh, double ratio,
                   DurationSec on_peak_start = 12 * kSecondsPerHour,
                   DurationSec on_peak_end = 24 * kSecondsPerHour,
                   bool weekends_off_peak = false,
                   DurationSec tz_offset = 0);

  Money price_at(TimeSec t) const override;
  PricePeriod period_at(TimeSec t) const override;
  TimeSec next_price_change(TimeSec t) const override;
  std::string name() const override;

  Money off_peak_price() const { return off_price_; }
  Money on_peak_price() const { return on_price_; }
  DurationSec tz_offset() const { return tz_offset_; }

 private:
  Money off_price_;
  Money on_price_;
  DurationSec on_start_;
  DurationSec on_end_;
  bool weekends_off_peak_;
  DurationSec tz_offset_;
};

/// Multi-tier time-of-use tariff: a daily schedule of (start-second, price)
/// tiers. Periods at or above `on_peak_threshold` (a price) count as
/// on-peak for the scheduler.
class TouPricing final : public PricingModel {
 public:
  struct Tier {
    DurationSec start_of_day;  ///< first second-of-day of this tier
    Money price_per_kwh;
  };

  /// Tiers must start at 0, be strictly increasing, and stay within a day.
  /// `tz_offset` shifts the daily schedule like OnOffPeakPricing's.
  TouPricing(std::vector<Tier> tiers, Money on_peak_threshold,
             DurationSec tz_offset = 0);

  Money price_at(TimeSec t) const override;
  PricePeriod period_at(TimeSec t) const override;
  TimeSec next_price_change(TimeSec t) const override;
  std::string name() const override;

 private:
  const Tier& tier_at(TimeSec t) const;
  std::vector<Tier> tiers_;
  Money threshold_;
  DurationSec tz_offset_;
};

/// An explicit hourly price series (e.g. a wholesale market tape). Prices
/// repeat cyclically past the end of the series. On-peak is defined as
/// price >= the series' median.
class HourlyPriceSeries final : public PricingModel {
 public:
  /// `hourly_prices[h]` applies to simulation hours h, h + len, ... .
  explicit HourlyPriceSeries(std::vector<Money> hourly_prices);

  Money price_at(TimeSec t) const override;
  PricePeriod period_at(TimeSec t) const override;
  TimeSec next_price_change(TimeSec t) const override;
  std::string name() const override;

  Money median_price() const { return median_; }

 private:
  std::vector<Money> prices_;
  Money median_;
};

/// Convenience: the paper's default tariff — off-peak $0.03/kWh, on/off
/// ratio as given (default 3).
std::unique_ptr<PricingModel> make_paper_tariff(double ratio = 3.0);

/// Construct a tariff by name — the registry that lets a declarative
/// run::PricingSpec cross a process boundary (a worker rebuilds the model
/// from name + parameters). Known names: "paper"/"onoff" (OnOffPeakPricing
/// at `off_peak_price` and `ratio`) and "flat" (FlatPricing at
/// `off_peak_price`; `ratio` ignored). `tz_offset` (seconds east of the
/// simulation clock) phase-shifts the daily windows; "flat" has none and
/// ignores it. Throws esched::Error listing the valid names for anything
/// else.
std::unique_ptr<PricingModel> make_pricing_by_name(const std::string& name,
                                                   Money off_peak_price,
                                                   double ratio,
                                                   DurationSec tz_offset = 0);

/// Throw the esched::Error make_pricing_by_name throws unless `name` is
/// one of its known names — for code that keys on a tariff name without
/// constructing the tariff (run::share_key).
void require_pricing_name(const std::string& name);

}  // namespace esched::power
