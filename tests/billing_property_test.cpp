// Property tests crossing module boundaries:
//  * BillingMeter vs a per-second reference integrator, for every tariff
//    family (on/off-peak, weekend-aware, shifted-window, hourly series,
//    misforecast wrapper, with and without facility models) on random
//    power signals;
//  * the simulator's time-of-day utilization curve must integrate back to
//    the Eq. 3 overall utilization.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/greedy_policy.hpp"
#include "metrics/metrics.hpp"
#include "power/billing.hpp"
#include "power/facility.hpp"
#include "power/forecast.hpp"
#include "power/profile.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/time_util.hpp"

namespace esched {
namespace {

using power::BillingMeter;
using power::FacilityModel;
using power::PricingModel;

// Per-second reference: bill = sum over seconds of price(t) * watts(t).
struct Reference {
  double bill = 0.0;
  double energy = 0.0;
};

Reference integrate_per_second(const PricingModel& tariff,
                               const FacilityModel* facility,
                               const std::vector<std::pair<TimeSec, Watts>>&
                                   change_points,
                               TimeSec end) {
  Reference ref;
  Watts watts = 0.0;
  std::size_t next = 0;
  for (TimeSec t = 0; t < end; ++t) {
    while (next < change_points.size() && change_points[next].first == t) {
      watts = change_points[next].second;
      ++next;
    }
    const Watts billed =
        facility != nullptr ? facility->facility_watts(watts, t) : watts;
    ref.energy += billed;
    ref.bill += joules_to_kwh(billed) * tariff.price_at(t);
  }
  return ref;
}

class BillingCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BillingCrossCheck, MeterMatchesPerSecondReference) {
  Rng rng(GetParam());
  // Tariff zoo. Raw pointers into locals kept alive for the test body.
  power::OnOffPeakPricing onoff(0.03, 3.0);
  power::OnOffPeakPricing weekend(0.05, 4.0, 8 * kSecondsPerHour,
                                  20 * kSecondsPerHour,
                                  /*weekends_off_peak=*/true);
  power::OnOffPeakPricing shifted(0.02, 5.5, 6 * kSecondsPerHour,
                                  18 * kSecondsPerHour,
                                  /*weekends_off_peak=*/false,
                                  /*tz_offset=*/2 * kSecondsPerHour);
  power::HourlyPriceSeries hourly(
      {0.02, 0.03, 0.05, 0.08, 0.13, 0.08, 0.04});
  power::MisforecastTariff forecast(onoff, 0.3, 9);
  const std::vector<const PricingModel*> tariffs{&onoff, &weekend, &shifted,
                                                 &hourly, &forecast};

  power::ConstantPue flat_pue(1.37);
  power::PeriodPue period_pue(onoff, 1.1, 1.55);
  const std::vector<const FacilityModel*> facilities{nullptr, &flat_pue,
                                                     &period_pue};

  for (const PricingModel* tariff : tariffs) {
    for (const FacilityModel* facility : facilities) {
      // PeriodPue is keyed on `onoff`; only pair it with that tariff to
      // honor the segment-constancy contract.
      if (facility == &period_pue && tariff != &onoff) continue;

      // Random piecewise-constant power over ~3 days.
      const TimeSec end = 3 * kSecondsPerDay + rng.uniform_int(0, 3600);
      std::vector<std::pair<TimeSec, Watts>> changes;
      TimeSec t = 0;
      while (t < end) {
        changes.push_back(
            {t, static_cast<double>(rng.uniform_int(0, 5000))});
        t += rng.uniform_int(1, 8 * kSecondsPerHour);
      }

      BillingMeter meter(*tariff, 0, facility);
      for (const auto& [at, watts] : changes) meter.set_power(at, watts);
      meter.finish(end);
      const Reference ref =
          integrate_per_second(*tariff, facility, changes, end);

      // Relative tolerance: the per-second reference accumulates ~1e5
      // floating-point additions over ~1e9 J.
      EXPECT_NEAR(meter.total_bill(), ref.bill,
                  1e-9 * ref.bill + 1e-9)
          << tariff->name() << " / "
          << (facility != nullptr ? facility->name() : "no-facility");
      EXPECT_NEAR(meter.total_energy(), ref.energy,
                  1e-9 * ref.energy + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BillingCrossCheck,
                         ::testing::Values(1u, 2u, 3u));

TEST(CurveConsistencyTest, UtilizationCurveIntegratesToEq3) {
  // The time-of-day utilization curve is a reshuffled view of the same
  // busy-node integral Eq. 3 computes: the coverage-weighted mean of the
  // curve must equal overall utilization.
  trace::Trace t = trace::make_anl_bgp_like(1, 91);
  power::assign_profiles(t, power::ProfileConfig{}, 91);
  power::OnOffPeakPricing pricing(0.03, 3.0);
  core::GreedyPowerPolicy policy;
  sim::SimConfig cfg;
  cfg.daily_curve_bins = 96;
  const sim::SimResult r = sim::simulate(t, pricing, policy, cfg);

  // Recover coverage per bin from the horizon (every bin's coverage is
  // the number of times its time-of-day slot occurs in the horizon).
  const auto bins = r.utilization_curve.size();
  const DurationSec width = kSecondsPerDay / static_cast<DurationSec>(bins);
  double weighted = 0.0;
  double coverage_total = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    // Count seconds of this bin inside [horizon_begin, horizon_end).
    double coverage = 0.0;
    for (TimeSec day = start_of_day(r.horizon_begin);
         day < r.horizon_end; day += kSecondsPerDay) {
      const TimeSec lo =
          std::max(r.horizon_begin,
                   day + static_cast<DurationSec>(b) * width);
      const TimeSec hi =
          std::min(r.horizon_end,
                   day + static_cast<DurationSec>(b + 1) * width);
      if (hi > lo) coverage += static_cast<double>(hi - lo);
    }
    weighted += r.utilization_curve[b] * coverage;
    coverage_total += coverage;
  }
  ASSERT_GT(coverage_total, 0.0);
  EXPECT_NEAR(weighted / coverage_total,
              metrics::overall_utilization(r), 1e-9);
}

}  // namespace
}  // namespace esched
