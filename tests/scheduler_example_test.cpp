// The paper's §3 worked example, encoded as a test: five jobs on a 12-node
// system.
//
//   Job  Power (W/node)  Size
//   J0   50              6
//   J1   20              3
//   J2   40              3
//   J3   30              3
//   J4   10              6
//
// FCFS always dispatches <J0, J1, J2>. The power-aware design dispatches
// <J4, J1, J3> during on-peak and <J0, J2, J3> during off-peak.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "core/scheduler.hpp"

namespace esched::core {
namespace {

using power::PricePeriod;

std::vector<PendingJob> paper_jobs_table() {
  // Sizes exactly as in the paper's table: J0=6, J1=3, J2=3, J3=3, J4=6.
  return {
      {0, 0, 6, 3600, 50.0},
      {1, 1, 3, 3600, 20.0},
      {2, 2, 3, 3600, 40.0},
      {3, 3, 3, 3600, 30.0},
      {4, 4, 6, 3600, 10.0},
  };
}

std::vector<JobId> started_ids(Scheduler& scheduler,
                               const std::vector<PendingJob>& queue,
                               PricePeriod period) {
  const ScheduleContext ctx{0, 12, 12, period};
  const auto starts = scheduler.decide(ctx, queue, {});
  std::vector<JobId> ids;
  for (const auto qi : starts) ids.push_back(queue[qi].id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(PaperExampleTest, FcfsAlwaysStartsJ0J1J2) {
  FcfsPolicy policy;
  Scheduler scheduler(policy, SchedulerConfig{});
  const auto queue = paper_jobs_table();
  for (const auto period : {PricePeriod::kOnPeak, PricePeriod::kOffPeak}) {
    const auto ids = started_ids(scheduler, queue, period);
    EXPECT_EQ(ids, (std::vector<JobId>{0, 1, 2}));
  }
}

TEST(PaperExampleTest, GreedyOnPeakStartsJ4J1J3) {
  GreedyPowerPolicy policy;
  Scheduler scheduler(policy, SchedulerConfig{});
  const auto ids =
      started_ids(scheduler, paper_jobs_table(), PricePeriod::kOnPeak);
  // Ascending power: J4(10) 6 nodes, J1(20) 3 nodes, J3(30) 3 nodes = 12.
  EXPECT_EQ(ids, (std::vector<JobId>{1, 3, 4}));
}

TEST(PaperExampleTest, GreedyOffPeakStartsJ0J2J3) {
  GreedyPowerPolicy policy;
  Scheduler scheduler(policy, SchedulerConfig{});
  const auto ids =
      started_ids(scheduler, paper_jobs_table(), PricePeriod::kOffPeak);
  // Descending power: J0(50) 6, J2(40) 3, J3(30) 3 = 12.
  EXPECT_EQ(ids, (std::vector<JobId>{0, 2, 3}));
}

TEST(PaperExampleTest, KnapsackOnPeakStartsJ4J1J3) {
  KnapsackPolicy policy;
  Scheduler scheduler(policy, SchedulerConfig{});
  const auto ids =
      started_ids(scheduler, paper_jobs_table(), PricePeriod::kOnPeak);
  // Min aggregate power among 12-node packings:
  // {J4,J1,J3} = 60+60+90 = 210 W (vs {J4,J1,J2}=240, {J0,J1,J2}=480...).
  EXPECT_EQ(ids, (std::vector<JobId>{1, 3, 4}));
}

TEST(PaperExampleTest, KnapsackOffPeakStartsJ0J2J3) {
  KnapsackPolicy policy;
  Scheduler scheduler(policy, SchedulerConfig{});
  const auto ids =
      started_ids(scheduler, paper_jobs_table(), PricePeriod::kOffPeak);
  // Max aggregate power: {J0,J2,J3} = 300+120+90 = 510 W.
  EXPECT_EQ(ids, (std::vector<JobId>{0, 2, 3}));
}

TEST(PaperExampleTest, PowerAwarePoliciesFillTheMachineToo) {
  // The paper's utilization rule: in every case, all 12 nodes are used.
  for (const auto period : {PricePeriod::kOnPeak, PricePeriod::kOffPeak}) {
    for (int which = 0; which < 2; ++which) {
      GreedyPowerPolicy greedy;
      KnapsackPolicy knapsack;
      SchedulingPolicy& policy =
          which == 0 ? static_cast<SchedulingPolicy&>(greedy)
                     : static_cast<SchedulingPolicy&>(knapsack);
      Scheduler scheduler(policy, SchedulerConfig{});
      const auto queue = paper_jobs_table();
      const ScheduleContext ctx{0, 12, 12, period};
      const auto starts = scheduler.decide(ctx, queue, {});
      NodeCount used = 0;
      for (const auto qi : starts) used += queue[qi].nodes;
      EXPECT_EQ(used, 12);
    }
  }
}

}  // namespace
}  // namespace esched::core
