// Tests for the EnergyKnapsackPolicy extension (period-overlap-weighted
// knapsack values).
#include "core/energy_knapsack_policy.hpp"

#include <gtest/gtest.h>

#include "core/knapsack_policy.hpp"

namespace esched::core {
namespace {

using power::PricePeriod;

PendingJob job(JobId id, NodeCount nodes, DurationSec walltime,
               Watts power) {
  return PendingJob{id, 0, nodes, walltime, power};
}

TEST(EnergyKnapsackTest, OverlapOutweighsInstantaneousPower) {
  // Capacity 4 off-peak with 2 h left in the period. Job A: hot (60 W)
  // but only 10 min of it lands in the cheap window. Job B: cooler (40 W)
  // but runs the whole 2 h. Instantaneous-power knapsack picks A; the
  // energy variant picks B (40*7200 > 60*600).
  const std::vector<PendingJob> window{
      job(1, 4, 600, 60.0),
      job(2, 4, 10 * 3600, 40.0),
  };
  ScheduleContext ctx{0, 4, 8, PricePeriod::kOffPeak};
  ctx.period_end = 2 * 3600;

  KnapsackPolicy base;
  EXPECT_EQ(base.select(window, ctx).chosen, (std::vector<std::size_t>{0}));

  EnergyKnapsackPolicy energy;
  EXPECT_EQ(energy.select(window, ctx).chosen,
            (std::vector<std::size_t>{1}));
}

TEST(EnergyKnapsackTest, FallsBackToWalltimeWithoutBoundary) {
  // period_end unknown (0): weight by walltime. Same two jobs: B's
  // walltime-energy 40*36000 beats A's 60*600.
  const std::vector<PendingJob> window{
      job(1, 4, 600, 60.0),
      job(2, 4, 10 * 3600, 40.0),
  };
  const ScheduleContext ctx{0, 4, 8, PricePeriod::kOffPeak};
  EnergyKnapsackPolicy energy;
  EXPECT_EQ(energy.select(window, ctx).chosen,
            (std::vector<std::size_t>{1}));
}

TEST(EnergyKnapsackTest, OnPeakStillPacksMaximally) {
  // The utilization rule must survive the value change: on-peak the
  // selection fills all nodes, minimising within-period energy.
  const std::vector<PendingJob> window{
      job(1, 8, 3600, 50.0),             // fills alone, hot
      job(2, 4, 3600, 10.0),
      job(3, 4, 3600, 20.0),
  };
  ScheduleContext ctx{0, 8, 8, PricePeriod::kOnPeak};
  ctx.period_end = 3600;
  EnergyKnapsackPolicy energy;
  const auto sel = energy.select(window, ctx);
  EXPECT_EQ(sel.total_weight, 8);
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(EnergyKnapsackTest, PrioritizeIsAPermutation) {
  const std::vector<PendingJob> window{
      job(1, 4, 600, 60.0), job(2, 4, 7200, 40.0), job(3, 2, 100, 20.0)};
  ScheduleContext ctx{0, 6, 8, PricePeriod::kOffPeak};
  ctx.period_end = 3600;
  EnergyKnapsackPolicy energy;
  const auto order = energy.prioritize(window, ctx);
  std::vector<std::uint8_t> marks;
  require_permutation(order, window.size(), marks);
  EXPECT_EQ(energy.name(), "EnergyKnapsack");
}

TEST(EnergyKnapsackTest, EquivalentToBaseForUniformWalltimes) {
  // When every job has the same within-period overlap, the energy values
  // are a constant multiple of the power values, so selections agree.
  const std::vector<PendingJob> window{
      job(1, 4, 7200, 50.0), job(2, 4, 7200, 10.0), job(3, 4, 7200, 45.0)};
  for (const auto period : {PricePeriod::kOnPeak, PricePeriod::kOffPeak}) {
    ScheduleContext ctx{0, 8, 8, period};
    ctx.period_end = 3600;  // overlap = 3600 for all three
    KnapsackPolicy base;
    EnergyKnapsackPolicy energy;
    EXPECT_EQ(base.select(window, ctx).chosen,
              energy.select(window, ctx).chosen);
  }
}

}  // namespace
}  // namespace esched::core
