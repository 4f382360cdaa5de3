// Unit tests for the report-table builders.
#include "metrics/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::metrics {
namespace {

/// Cell (row, col) of `t`, read back from its CSV rendering (the cells
/// these tables hold have no commas or quotes).
std::string cell(const Table& t, std::size_t row, std::size_t col) {
  std::istringstream lines(t.render_csv());
  std::string line;
  for (std::size_t r = 0; r <= row + 1; ++r) std::getline(lines, line);
  std::istringstream cells(line);
  std::string value;
  for (std::size_t c = 0; c <= col; ++c) std::getline(cells, value, ',');
  return value;
}

sim::SimResult make_result(const std::string& policy, double daily_bill,
                           DurationSec wait) {
  sim::SimResult r;
  r.policy_name = policy;
  r.trace_name = std::string("trace");  // std::string() avoids GCC12 -Wrestrict FP
  r.system_nodes = 100;
  r.horizon_begin = 0;
  r.horizon_end = 2 * kSecondsPerMonth;
  for (int i = 0; i < 4; ++i) {
    sim::JobRecord rec;
    rec.id = i + 1;
    rec.submit = static_cast<TimeSec>(i) * kSecondsPerMonth / 2;
    rec.start = rec.submit + wait;
    rec.finish = rec.start + 3600;
    rec.nodes = 50;
    rec.power_per_node = 30.0;
    r.records.push_back(rec);
  }
  r.daily_bills.assign(60, daily_bill);
  r.total_bill = daily_bill * 60;
  r.power_curve.assign(24, 1000.0);
  r.utilization_curve.assign(24, 0.5);
  return r;
}

TEST(ReportTest, UtilizationTableShape) {
  const std::vector<sim::SimResult> results{make_result("FCFS", 10, 0),
                                            make_result("Greedy", 9, 5)};
  const Table t = monthly_utilization_table(results, 2);
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_EQ(t.row_count(), 3u);  // 2 months + overall
  EXPECT_EQ(cell(t, 2, 0), "overall");
}

TEST(ReportTest, SavingTableComputesPercentages) {
  const std::vector<sim::SimResult> results{make_result("FCFS", 10, 0),
                                            make_result("Greedy", 9, 0)};
  const Table t = monthly_saving_table(results, 2);
  EXPECT_EQ(cell(t, 0, 1), "10.00%");
  EXPECT_EQ(cell(t, 2, 0), "average");
  EXPECT_EQ(cell(t, 2, 1), "10.00%");
  const std::vector<sim::SimResult> only_base{make_result("FCFS", 10, 0)};
  EXPECT_THROW(monthly_saving_table(only_base, 2), Error);
}

TEST(ReportTest, WaitTableUsesSeconds) {
  const std::vector<sim::SimResult> results{make_result("FCFS", 10, 120)};
  const Table t = monthly_wait_table(results, 2);
  EXPECT_EQ(cell(t, 0, 1), "120.0");
  EXPECT_EQ(cell(t, 2, 1), "120.0");  // overall row
}

TEST(ReportTest, SummaryLineMentionsEverything) {
  const std::string line = summary_line(make_result("Knapsack", 10, 60));
  EXPECT_NE(line.find("Knapsack"), std::string::npos);
  EXPECT_NE(line.find("bill="), std::string::npos);
  EXPECT_NE(line.find("util="), std::string::npos);
  EXPECT_NE(line.find("mean-wait=60.0s"), std::string::npos);
}

TEST(ReportTest, CurveTableStepsAndScales) {
  const std::vector<sim::SimResult> results{make_result("FCFS", 10, 0)};
  // 24 bins at step 6 -> 4 rows; scale W to kW.
  const Table t = daily_curve_table(results, false, 6, 1e-3, "kW");
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_EQ(cell(t, 0, 0), "00:00");
  EXPECT_EQ(cell(t, 1, 0), "06:00");
  EXPECT_EQ(cell(t, 0, 1), "1.000");
  const Table u = daily_curve_table(results, true, 6, 100.0, "%");
  EXPECT_EQ(cell(u, 0, 1), "50.000");
}

TEST(ReportTest, CurveTableValidatesInput) {
  std::vector<sim::SimResult> results{make_result("FCFS", 10, 0)};
  results[0].power_curve.clear();
  results[0].utilization_curve.clear();
  EXPECT_THROW(daily_curve_table(results, false, 4, 1.0, "W"), Error);
  EXPECT_THROW(daily_curve_table({}, false, 4, 1.0, "W"), Error);
}

}  // namespace
}  // namespace esched::metrics
