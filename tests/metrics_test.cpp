// Tests for metric computation: Eq. 3 utilization, monthly splits, bill
// savings, and the result validator.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include "oracles.hpp"
#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::metrics {
namespace {

sim::JobRecord rec(JobId id, TimeSec submit, TimeSec start, TimeSec finish,
                   NodeCount nodes, Watts power = 30.0) {
  return sim::JobRecord{id, submit, start, finish, nodes, power};
}

sim::SimResult result_with(std::vector<sim::JobRecord> records,
                           NodeCount system_nodes, TimeSec begin,
                           TimeSec end) {
  sim::SimResult r;
  r.policy_name = "test";
  r.system_nodes = system_nodes;
  r.horizon_begin = begin;
  r.horizon_end = end;
  r.records = std::move(records);
  return r;
}

TEST(UtilizationTest, Eq3OnKnownSchedule) {
  // 100-node machine, horizon 1000 s: job A 50 nodes for 400 s, job B
  // 100 nodes for 300 s -> (20000 + 30000) / 100000 = 0.5.
  const auto r = result_with(
      {rec(1, 0, 0, 400, 50), rec(2, 0, 400, 700, 100)}, 100, 0, 1000);
  EXPECT_DOUBLE_EQ(overall_utilization(r), 0.5);
}

TEST(UtilizationTest, EmptyAndDegenerate) {
  const auto empty = result_with({}, 100, 0, 0);
  EXPECT_DOUBLE_EQ(overall_utilization(empty), 0.0);
}

TEST(UtilizationTest, MonthlySplitsClipJobSpans) {
  // Job spans the month boundary: 2 days in month 0, 3 days in month 1.
  const TimeSec mb = kSecondsPerMonth;
  const auto r = result_with(
      {rec(1, 0, mb - 2 * kSecondsPerDay, mb + 3 * kSecondsPerDay, 100)},
      100, 0, 2 * kSecondsPerMonth);
  const auto util = monthly_utilization(r, 2);
  EXPECT_NEAR(util[0], 2.0 / 30.0, 1e-12);
  EXPECT_NEAR(util[1], 3.0 / 30.0, 1e-12);
}

TEST(UtilizationTest, MonthlyDenominatorUsesHorizonOverlap) {
  // Horizon covers only half of month 0; a job busy for that whole half
  // means 100% utilization for the month.
  const TimeSec half = kSecondsPerMonth / 2;
  const auto r = result_with({rec(1, 0, 0, half, 100)}, 100, 0, half);
  const auto util = monthly_utilization(r, 1);
  EXPECT_DOUBLE_EQ(util[0], 1.0);
}

TEST(WaitTest, MonthlyMeansGroupBySubmission) {
  const TimeSec m1 = kSecondsPerMonth;
  const auto r = result_with(
      {
          rec(1, 0, 100, 200, 10),        // month 0, wait 100
          rec(2, 50, 350, 400, 10),       // month 0, wait 300
          rec(3, m1 + 10, m1 + 20, m1 + 30, 10),  // month 1, wait 10
      },
      100, 0, 2 * kSecondsPerMonth);
  const auto wait = monthly_mean_wait(r, 2);
  EXPECT_DOUBLE_EQ(wait[0], 200.0);
  EXPECT_DOUBLE_EQ(wait[1], 10.0);
}

TEST(BillTest, MonthlyBillsAggregatesDailyAndSavings) {
  sim::SimResult base = result_with({}, 10, 0, 2 * kSecondsPerMonth);
  base.daily_bills.assign(60, 10.0);  // $10/day for 2 months
  base.total_bill = 600.0;
  sim::SimResult cheap = base;
  cheap.daily_bills.assign(60, 9.0);
  cheap.total_bill = 540.0;

  const auto mb = monthly_bill(base, 2);
  EXPECT_DOUBLE_EQ(mb[0], 300.0);
  EXPECT_DOUBLE_EQ(mb[1], 300.0);

  EXPECT_DOUBLE_EQ(bill_saving_percent(base, cheap), 10.0);
  const auto ms = monthly_bill_saving_percent(base, cheap, 2);
  EXPECT_DOUBLE_EQ(ms[0], 10.0);
  EXPECT_DOUBLE_EQ(ms[1], 10.0);
  // Zero-bill baseline reports zero saving, not a division blowup.
  sim::SimResult zero = base;
  zero.total_bill = 0.0;
  EXPECT_DOUBLE_EQ(bill_saving_percent(zero, cheap), 0.0);
}

TEST(HorizonMonthsTest, CountsCoveringMonths) {
  auto r = result_with({}, 10, 0, kSecondsPerMonth);
  EXPECT_EQ(horizon_months(r), 1u);
  r.horizon_end = kSecondsPerMonth + 1;
  EXPECT_EQ(horizon_months(r), 2u);
  r.horizon_end = 0;
  EXPECT_EQ(horizon_months(r), 1u);
}

TEST(ValidateResultTest, AcceptsConsistentSchedule) {
  const auto r = result_with(
      {rec(1, 0, 0, 400, 50), rec(2, 0, 0, 300, 50),
       rec(3, 100, 400, 500, 100)},
      100, 0, 500);
  EXPECT_NO_THROW(validate_result(r));
}

TEST(ValidateResultTest, CatchesOverAllocation) {
  const auto r = result_with(
      {rec(1, 0, 0, 400, 60), rec(2, 0, 0, 300, 60)}, 100, 0, 400);
  EXPECT_THROW(validate_result(r), Error);
}

TEST(ValidateResultTest, CatchesTemporalViolations) {
  // Start before submit.
  auto r = result_with({rec(1, 100, 50, 200, 10)}, 100, 0, 200);
  EXPECT_THROW(validate_result(r), Error);
  // Finish before start.
  r = result_with({rec(1, 0, 100, 100, 10)}, 100, 0, 200);
  EXPECT_THROW(validate_result(r), Error);
  // Outside the horizon.
  r = result_with({rec(1, 0, 0, 500, 10)}, 100, 0, 400);
  EXPECT_THROW(validate_result(r), Error);
}

TEST(ValidateResultTest, BackToBackAllocationsAtSameInstantAreFine) {
  // Job 2 starts exactly when job 1 finishes, using the same nodes.
  const auto r = result_with(
      {rec(1, 0, 0, 100, 100), rec(2, 0, 100, 200, 100)}, 100, 0, 200);
  EXPECT_NO_THROW(validate_result(r));
}

}  // namespace
}  // namespace esched::metrics
