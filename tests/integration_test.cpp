// End-to-end integration tests: full trace -> profiles -> simulation ->
// metrics pipelines, checking the paper's qualitative claims on
// reduced-size synthetic workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "oracles.hpp"
#include "power/billing.hpp"
#include "power/profile.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace esched {
namespace {

using core::FcfsPolicy;
using core::GreedyPowerPolicy;
using core::KnapsackPolicy;
using power::OnOffPeakPricing;
using sim::simulate;
using sim::SimConfig;
using sim::SimResult;

struct Suite {
  SimResult fcfs;
  SimResult greedy;
  SimResult knapsack;
};

Suite run_suite(trace::Trace& trace, double price_ratio = 3.0,
                const SimConfig& config = {}) {
  OnOffPeakPricing pricing(0.03, price_ratio);
  FcfsPolicy fcfs;
  GreedyPowerPolicy greedy;
  KnapsackPolicy knapsack;
  return Suite{simulate(trace, pricing, fcfs, config),
               simulate(trace, pricing, greedy, config),
               simulate(trace, pricing, knapsack, config)};
}

class IntegrationTest : public ::testing::Test {
 protected:
  static trace::Trace make_capability_trace() {
    trace::Trace t = trace::make_anl_bgp_like(1, 101);
    power::assign_profiles(t, power::ProfileConfig{}, 101);
    return t;
  }
  static trace::Trace make_capacity_trace() {
    trace::Trace t = trace::make_sdsc_blue_like(1, 202);
    power::assign_profiles(t, power::ProfileConfig{}, 202);
    return t;
  }
};

TEST_F(IntegrationTest, AllPoliciesProduceValidSchedules) {
  auto t = make_capability_trace();
  const Suite s = run_suite(t);
  for (const SimResult* r : {&s.fcfs, &s.greedy, &s.knapsack}) {
    EXPECT_NO_THROW(metrics::validate_result(*r));
    EXPECT_EQ(r->records.size(), t.size());
  }
}

TEST_F(IntegrationTest, EnergyIsPolicyInvariant) {
  // Scheduling order shifts *when* jobs run, never how much energy they
  // use (idle power is 0 here) — total energy must agree across policies
  // up to float noise.
  auto t = make_capability_trace();
  const Suite s = run_suite(t);
  EXPECT_NEAR(s.greedy.total_energy / s.fcfs.total_energy, 1.0, 1e-9);
  EXPECT_NEAR(s.knapsack.total_energy / s.fcfs.total_energy, 1.0, 1e-9);
}

TEST_F(IntegrationTest, PowerAwarePoliciesCutTheBill) {
  auto t = make_capability_trace();
  const Suite s = run_suite(t);
  const double greedy_saving = metrics::bill_saving_percent(s.fcfs, s.greedy);
  const double knap_saving = metrics::bill_saving_percent(s.fcfs, s.knapsack);
  // Paper Fig. 8: monthly savings of roughly 2-10% on ANL-BGP.
  EXPECT_GT(greedy_saving, 0.5);
  EXPECT_GT(knap_saving, 0.5);
  EXPECT_LT(greedy_saving, 25.0);
  EXPECT_LT(knap_saving, 25.0);
}

TEST_F(IntegrationTest, SavingsComeFromShiftingEnergyOffPeak) {
  // The mechanism: the power-aware policies move energy from on-peak to
  // off-peak hours relative to FCFS.
  auto t = make_capability_trace();
  const Suite s = run_suite(t);
  const double fcfs_on_share =
      s.fcfs.energy_on_peak / s.fcfs.total_energy;
  const double greedy_on_share =
      s.greedy.energy_on_peak / s.greedy.total_energy;
  const double knap_on_share =
      s.knapsack.energy_on_peak / s.knapsack.total_energy;
  EXPECT_LT(greedy_on_share, fcfs_on_share);
  EXPECT_LT(knap_on_share, fcfs_on_share);
}

TEST_F(IntegrationTest, UtilizationImpactIsSmall) {
  // Paper Figs. 5/6: utilization change < 5 percentage points.
  auto t = make_capability_trace();
  const Suite s = run_suite(t);
  const double base = metrics::overall_utilization(s.fcfs);
  EXPECT_NEAR(metrics::overall_utilization(s.greedy), base, 0.05);
  EXPECT_NEAR(metrics::overall_utilization(s.knapsack), base, 0.05);
}

TEST_F(IntegrationTest, WaitTimeImpactIsBounded) {
  // Paper Figs. 9/10: mean wait change is small (they report < 10 s on
  // month-scale traces; we allow a looser band on 1-month synthetics).
  auto t = make_capacity_trace();
  const Suite s = run_suite(t);
  const double base = s.fcfs.mean_wait_seconds();
  EXPECT_NEAR(s.greedy.mean_wait_seconds(), base,
              0.25 * base + 120.0);
  EXPECT_NEAR(s.knapsack.mean_wait_seconds(), base,
              0.25 * base + 120.0);
}

TEST_F(IntegrationTest, HigherPriceRatioRaisesSavings) {
  // Paper Tables 2/3: savings increase with the on/off price ratio.
  auto t = make_capability_trace();
  const Suite s3 = run_suite(t, 3.0);
  const Suite s5 = run_suite(t, 5.0);
  EXPECT_GT(metrics::bill_saving_percent(s5.fcfs, s5.knapsack),
            metrics::bill_saving_percent(s3.fcfs, s3.knapsack));
}

TEST_F(IntegrationTest, HigherPowerRatioRaisesSavings) {
  // Paper Tables 2/3: savings increase with the job power-profile ratio.
  trace::Trace t2 = trace::make_anl_bgp_like(1, 101);
  trace::Trace t4 = trace::make_anl_bgp_like(1, 101);
  power::ProfileConfig cfg2;
  cfg2.ratio = 2.0;
  power::ProfileConfig cfg4;
  cfg4.ratio = 4.0;
  power::assign_profiles(t2, cfg2, 101);
  power::assign_profiles(t4, cfg4, 101);
  const Suite s2 = run_suite(t2);
  const Suite s4 = run_suite(t4);
  EXPECT_GT(metrics::bill_saving_percent(s4.fcfs, s4.greedy),
            metrics::bill_saving_percent(s2.fcfs, s2.greedy));
}

TEST_F(IntegrationTest, LongerTickIntervalRaisesSavings) {
  // Paper Table 4: longer scheduling periods accumulate more nodes per
  // decision and save more.
  auto t = make_capability_trace();
  SimConfig c10;
  c10.tick_interval = 10;
  SimConfig c30;
  c30.tick_interval = 30;
  const Suite s10 = run_suite(t, 3.0, c10);
  const Suite s30 = run_suite(t, 3.0, c30);
  EXPECT_GE(metrics::bill_saving_percent(s30.fcfs, s30.knapsack) + 0.5,
            metrics::bill_saving_percent(s10.fcfs, s10.knapsack));
}

TEST_F(IntegrationTest, WindowSizeSweepIsStable) {
  // Paper §6.4: metrics vary little across window sizes 10-200.
  auto t = make_capacity_trace();
  OnOffPeakPricing pricing(0.03, 3.0);
  double min_util = 1.0;
  double max_util = 0.0;
  for (const std::size_t w : {10u, 30u, 100u}) {
    GreedyPowerPolicy greedy;
    SimConfig cfg;
    cfg.scheduler.window_size = w;
    const SimResult r = simulate(t, pricing, greedy, cfg);
    const double u = metrics::overall_utilization(r);
    min_util = std::min(min_util, u);
    max_util = std::max(max_util, u);
  }
  EXPECT_LT(max_util - min_util, 0.05);
}

TEST_F(IntegrationTest, MiraCaseStudyRunsEndToEnd) {
  trace::MiraConfig mc;
  mc.job_count = 600;  // reduced for test speed
  trace::Trace t = trace::make_mira_like(mc, 7);
  OnOffPeakPricing pricing(0.03, 3.0);
  FcfsPolicy fcfs;
  KnapsackPolicy knapsack;
  const SimResult rf = simulate(t, pricing, fcfs);
  const SimResult rk = simulate(t, pricing, knapsack);
  EXPECT_NO_THROW(metrics::validate_result(rf));
  EXPECT_NO_THROW(metrics::validate_result(rk));
  // Off-peak energy share should not decrease under the knapsack policy.
  EXPECT_GE(rk.energy_off_peak / rk.total_energy,
            rf.energy_off_peak / rf.total_energy - 0.01);
}

TEST_F(IntegrationTest, ReportTablesRenderForRealResults) {
  auto t = make_capability_trace();
  const Suite s = run_suite(t);
  const std::vector<SimResult> results{s.fcfs, s.greedy, s.knapsack};
  const auto months = metrics::horizon_months(s.fcfs);
  EXPECT_GT(metrics::monthly_utilization_table(results, months)
                .render()
                .size(),
            0u);
  EXPECT_GT(metrics::monthly_saving_table(results, months).render().size(),
            0u);
  EXPECT_GT(metrics::monthly_wait_table(results, months).render().size(),
            0u);
  EXPECT_GT(
      metrics::daily_curve_table(results, true, 8, 100.0, "%").render_csv()
          .size(),
      0u);
  EXPECT_FALSE(metrics::summary_line(s.fcfs).empty());
}

TEST_F(IntegrationTest, StarvationGuardBoundsWorstCaseWait) {
  auto t = make_capability_trace();
  OnOffPeakPricing pricing(0.03, 3.0);
  GreedyPowerPolicy greedy;
  SimConfig guarded;
  guarded.scheduler.starvation_age = 2 * 3600;
  const SimResult rg = simulate(t, pricing, greedy);
  const SimResult rb = simulate(t, pricing, greedy, guarded);
  EXPECT_NO_THROW(metrics::validate_result(rb));
  // The guard must not increase the maximum wait.
  DurationSec max_unguarded = 0;
  DurationSec max_guarded = 0;
  for (const auto& r : rg.records)
    max_unguarded = std::max(max_unguarded, r.wait());
  for (const auto& r : rb.records)
    max_guarded = std::max(max_guarded, r.wait());
  EXPECT_LE(max_guarded, max_unguarded + 3600);
}

}  // namespace
}  // namespace esched
