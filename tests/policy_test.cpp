// Tests for the FCFS, Greedy and Knapsack window-ordering policies.
#include <gtest/gtest.h>

#include <vector>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "oracles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace esched::core {
namespace {

using power::PricePeriod;

PendingJob make_job(JobId id, NodeCount nodes, Watts power,
                    TimeSec submit = 0) {
  return PendingJob{id, submit, nodes, 3600, power};
}

ScheduleContext ctx(NodeCount free, PricePeriod period) {
  return ScheduleContext{1000, free, free, period};
}

TEST(FcfsPolicyTest, KeepsArrivalOrderAndIsStrict) {
  FcfsPolicy policy;
  EXPECT_TRUE(policy.strict_order());
  EXPECT_EQ(policy.name(), "FCFS");
  const std::vector<PendingJob> window{make_job(1, 4, 50.0),
                                       make_job(2, 2, 10.0),
                                       make_job(3, 8, 30.0)};
  const auto order = policy.prioritize(window, ctx(16, PricePeriod::kOnPeak));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  // Identical regardless of price period.
  EXPECT_EQ(policy.prioritize(window, ctx(16, PricePeriod::kOffPeak)), order);
}

TEST(GreedyPolicyTest, OnPeakAscendingPower) {
  GreedyPowerPolicy policy;
  EXPECT_FALSE(policy.strict_order());
  const std::vector<PendingJob> window{
      make_job(1, 4, 50.0), make_job(2, 2, 10.0), make_job(3, 8, 30.0)};
  const auto order = policy.prioritize(window, ctx(16, PricePeriod::kOnPeak));
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));  // 10, 30, 50 W
}

TEST(GreedyPolicyTest, OffPeakDescendingPower) {
  GreedyPowerPolicy policy;
  const std::vector<PendingJob> window{
      make_job(1, 4, 50.0), make_job(2, 2, 10.0), make_job(3, 8, 30.0)};
  const auto order =
      policy.prioritize(window, ctx(16, PricePeriod::kOffPeak));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));  // 50, 30, 10 W
}

TEST(GreedyPolicyTest, TiesPreserveArrivalOrder) {
  GreedyPowerPolicy policy;
  const std::vector<PendingJob> window{
      make_job(1, 4, 30.0), make_job(2, 2, 30.0), make_job(3, 8, 30.0)};
  EXPECT_EQ(policy.prioritize(window, ctx(16, PricePeriod::kOnPeak)),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(policy.prioritize(window, ctx(16, PricePeriod::kOffPeak)),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GreedyPolicyTest, TotalPowerKeyVariant) {
  GreedyPowerPolicy policy(GreedyKey::kTotalPower);
  EXPECT_EQ(policy.name(), "Greedy(total-power)");
  // Per-node: job1 50 > job3 30. Total: job1 200 < job3 240.
  const std::vector<PendingJob> window{make_job(1, 4, 50.0),
                                       make_job(3, 8, 30.0)};
  const auto order = policy.prioritize(window, ctx(16, PricePeriod::kOnPeak));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));  // 200 before 240
}

TEST(GreedyPolicyTest, MatchesStableSortOracleOnDenseTies) {
  // Three power values and three node counts make key ties dense under
  // both keys; the policy's index tie-break must give stable_sort's order.
  Rng rng(2013);
  constexpr Watts kPowers[] = {20.0, 35.5, 60.0};
  constexpr NodeCount kNodes[] = {1, 2, 4};
  for (const GreedyKey key :
       {GreedyKey::kPowerPerNode, GreedyKey::kTotalPower}) {
    GreedyPowerPolicy policy(key);
    for (const PricePeriod period :
         {PricePeriod::kOnPeak, PricePeriod::kOffPeak}) {
      for (std::size_t n = 0; n <= 320; ++n) {
        std::vector<PendingJob> window;
        for (std::size_t i = 0; i < n; ++i) {
          window.push_back(make_job(static_cast<JobId>(i + 1),
                                    kNodes[rng.uniform_int(0, 2)],
                                    kPowers[rng.uniform_int(0, 2)]));
        }
        ASSERT_EQ(policy.prioritize(window, ctx(64, period)),
                  greedy_order_stable_sort(window, key, period))
            << "window of " << n;
      }
    }
  }
}

TEST(KnapsackPolicyTest, OffPeakMaximizesAggregatePower) {
  KnapsackPolicy policy;
  EXPECT_EQ(policy.name(), "Knapsack");
  // Capacity 8: {1,3} aggregate 4*50+4*45=380 beats {2,3} = 4*10+180=220
  // and {1,2} = 240.
  const std::vector<PendingJob> window{
      make_job(1, 4, 50.0), make_job(2, 4, 10.0), make_job(3, 4, 45.0)};
  const auto sel = policy.select(window, ctx(8, PricePeriod::kOffPeak));
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(sel.total_value, 380.0);
}

TEST(KnapsackPolicyTest, OnPeakPacksMaximallyWithMinimumPower) {
  KnapsackPolicy policy;
  const std::vector<PendingJob> window{
      make_job(1, 4, 50.0), make_job(2, 4, 10.0), make_job(3, 4, 45.0)};
  const auto sel = policy.select(window, ctx(8, PricePeriod::kOnPeak));
  // Max fill is 8 nodes; cheapest 8-node packing is {2,3} = 220.
  EXPECT_EQ(sel.total_weight, 8);
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(KnapsackPolicyTest, PrioritizeReturnsChosenFirstInArrivalOrder) {
  KnapsackPolicy policy;
  const std::vector<PendingJob> window{
      make_job(1, 4, 50.0), make_job(2, 4, 10.0), make_job(3, 4, 45.0)};
  const auto order =
      policy.prioritize(window, ctx(8, PricePeriod::kOnPeak));
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(KnapsackPolicyTest, ZeroFreeNodesSelectsNothing) {
  KnapsackPolicy policy;
  const std::vector<PendingJob> window{make_job(1, 4, 50.0)};
  const auto sel = policy.select(window, ctx(0, PricePeriod::kOffPeak));
  EXPECT_TRUE(sel.chosen.empty());
  // prioritize still returns a full permutation.
  const auto order = policy.prioritize(window, ctx(0, PricePeriod::kOffPeak));
  EXPECT_EQ(order.size(), 1u);
}

TEST(RequirePermutationTest, AcceptsAndRejects) {
  std::vector<std::uint8_t> marks;
  const std::vector<std::size_t> ok{2, 0, 1};
  EXPECT_NO_THROW(require_permutation(ok, 3, marks));
  const std::vector<std::size_t> wrong_size{0, 1};
  EXPECT_THROW(require_permutation(wrong_size, 3, marks), Error);
  const std::vector<std::size_t> dup{0, 0, 1};
  EXPECT_THROW(require_permutation(dup, 3, marks), Error);
  const std::vector<std::size_t> out_of_range{0, 1, 3};
  EXPECT_THROW(require_permutation(out_of_range, 3, marks), Error);
}

}  // namespace
}  // namespace esched::core
