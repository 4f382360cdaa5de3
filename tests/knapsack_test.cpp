// Tests for the 0-1 knapsack solver (Eq. 2), including randomized
// equivalence with brute force.
#include "core/knapsack.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "oracles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace esched::core {
namespace {

/// solve_knapsack with a fresh workspace.
KnapsackSolution solve(std::span<const KnapsackItem> items,
                       std::int64_t capacity, KnapsackObjective objective) {
  KnapsackWorkspace fresh;
  return solve_knapsack(items, capacity, objective, fresh);
}

TEST(KnapsackTest, EmptyInputs) {
  const std::vector<KnapsackItem> none;
  auto s = solve(none, 100, KnapsackObjective::kMaximizeValue);
  EXPECT_TRUE(s.chosen.empty());
  EXPECT_EQ(s.total_weight, 0);
  EXPECT_DOUBLE_EQ(s.total_value, 0.0);

  const std::vector<KnapsackItem> items{{5, 10.0}};
  s = solve(items, 0, KnapsackObjective::kMaximizeValue);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(KnapsackTest, ClassicMaximize) {
  // Weights 1,3,4,5; values 1,4,5,7; capacity 7 -> {3,4} value 9.
  const std::vector<KnapsackItem> items{{1, 1.0}, {3, 4.0}, {4, 5.0},
                                        {5, 7.0}};
  const auto s = solve(items, 7, KnapsackObjective::kMaximizeValue);
  EXPECT_DOUBLE_EQ(s.total_value, 9.0);
  EXPECT_EQ(s.total_weight, 7);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(KnapsackTest, OversizedItemIgnored) {
  const std::vector<KnapsackItem> items{{100, 1000.0}, {2, 3.0}};
  const auto s = solve(items, 10, KnapsackObjective::kMaximizeValue);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1}));
  EXPECT_DOUBLE_EQ(s.total_value, 3.0);
}

TEST(KnapsackTest, FillObjectivePrefersMoreNodes) {
  // One hot 8-node job vs two cool 3-node jobs, capacity 8: maximal fill
  // is 8 nodes; the cheap 6-node packing loses on weight.
  const std::vector<KnapsackItem> items{{8, 400.0}, {3, 60.0}, {3, 60.0}};
  const auto s = solve(
      items, 8, KnapsackObjective::kMaximizeWeightMinimizeValue);
  EXPECT_EQ(s.total_weight, 8);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{0}));
}

TEST(KnapsackTest, FillObjectiveBreaksTiesByMinValue) {
  // Two ways to reach weight 6: {0} value 300 or {1,2} value 120.
  const std::vector<KnapsackItem> items{{6, 300.0}, {3, 60.0}, {3, 60.0}};
  const auto s = solve(
      items, 6, KnapsackObjective::kMaximizeWeightMinimizeValue);
  EXPECT_EQ(s.total_weight, 6);
  EXPECT_DOUBLE_EQ(s.total_value, 120.0);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(KnapsackTest, MaximizeIsAutomaticallyMaximal) {
  // With all-positive values the off-peak optimum never leaves room for an
  // unchosen item (the paper's utilization rule for free).
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    std::vector<KnapsackItem> items;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({rng.uniform_int(1, 30),
                       static_cast<double>(rng.uniform_int(1, 500))});
    const std::int64_t cap = rng.uniform_int(1, 60);
    const auto s =
        solve(items, cap, KnapsackObjective::kMaximizeValue);
    std::vector<bool> chosen(items.size(), false);
    for (const auto i : s.chosen) chosen[i] = true;
    const std::int64_t leftover = cap - s.total_weight;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!chosen[i]) {
        EXPECT_GT(items[i].weight, leftover);
      }
    }
  }
}

TEST(KnapsackTest, GcdScalingGivesSameAnswer) {
  // Rack-granular weights (multiples of 1024) with a rack-granular
  // capacity exercise the gcd fast path; compare with an offset capacity
  // that breaks the gcd.
  const std::vector<KnapsackItem> items{
      {1024, 50.0}, {2048, 120.0}, {4096, 180.0}, {1024, 90.0}};
  const auto a =
      solve(items, 5120, KnapsackObjective::kMaximizeValue);
  // capacity 5120 = 5 racks: best is {2048,4096}? 6144 > 5120; so
  // {4096,1024(90)} = 270 vs {2048,1024,1024} = 260 -> 270.
  EXPECT_DOUBLE_EQ(a.total_value, 270.0);
  EXPECT_EQ(a.total_weight, 5120);
  const auto b =
      solve(items, 5121, KnapsackObjective::kMaximizeValue);
  EXPECT_DOUBLE_EQ(b.total_value, 270.0);
}

TEST(KnapsackTest, RejectsBadInputs) {
  const std::vector<KnapsackItem> bad_w{{0, 1.0}};
  EXPECT_THROW(
      solve(bad_w, 10, KnapsackObjective::kMaximizeValue), Error);
  const std::vector<KnapsackItem> bad_v{{1, -1.0}};
  EXPECT_THROW(
      solve(bad_v, 10, KnapsackObjective::kMaximizeValue), Error);
  const std::vector<KnapsackItem> ok{{1, 1.0}};
  EXPECT_THROW(
      solve(ok, -1, KnapsackObjective::kMaximizeValue), Error);
}

TEST(KnapsackTest, WorkspaceOverloadMatchesPlainOverload) {
  Rng rng(31);
  KnapsackWorkspace ws;  // one workspace reused across every round
  for (int round = 0; round < 80; ++round) {
    std::vector<KnapsackItem> items;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 16));
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({rng.uniform_int(1, 30),
                       static_cast<double>(rng.uniform_int(0, 300))});
    const std::int64_t cap = rng.uniform_int(0, 90);
    for (const auto obj : {KnapsackObjective::kMaximizeValue,
                           KnapsackObjective::kMaximizeWeightMinimizeValue}) {
      const auto plain = solve(items, cap, obj);
      const auto reused = solve_knapsack(items, cap, obj, ws);
      EXPECT_EQ(plain.chosen, reused.chosen);
      EXPECT_EQ(plain.total_weight, reused.total_weight);
      EXPECT_DOUBLE_EQ(plain.total_value, reused.total_value);
    }
  }
}

TEST(KnapsackTest, WarmWorkspacePerformsNoPerCallAllocations) {
  // Warm the workspace on the largest problem in the mix, then assert
  // that re-solving (same size and smaller) neither grows the buffer
  // capacities nor moves the allocations — i.e. the reconstruction table
  // costs zero heap traffic per call once warm.
  const std::vector<KnapsackItem> big{{3, 30.0}, {5, 50.0}, {7, 70.0},
                                      {4, 40.0}, {6, 60.0}};
  const std::vector<KnapsackItem> small{{2, 20.0}, {3, 30.0}};
  KnapsackWorkspace ws;
  solve_knapsack(big, 15, KnapsackObjective::kMaximizeValue, ws);

  const double* value_data = ws.best_value.data();
  const std::int64_t* weight_data = ws.best_weight.data();
  const std::uint8_t* taken_data = ws.taken.data();
  const std::size_t value_cap = ws.best_value.capacity();
  const std::size_t weight_cap = ws.best_weight.capacity();
  const std::size_t taken_cap = ws.taken.capacity();

  for (int round = 0; round < 10; ++round) {
    for (const auto obj : {KnapsackObjective::kMaximizeValue,
                           KnapsackObjective::kMaximizeWeightMinimizeValue}) {
      solve_knapsack(big, 15, obj, ws);
      solve_knapsack(small, 9, obj, ws);
    }
  }
  EXPECT_EQ(ws.best_value.data(), value_data);
  EXPECT_EQ(ws.best_weight.data(), weight_data);
  EXPECT_EQ(ws.taken.data(), taken_data);
  EXPECT_EQ(ws.best_value.capacity(), value_cap);
  EXPECT_EQ(ws.best_weight.capacity(), weight_cap);
  EXPECT_EQ(ws.taken.capacity(), taken_cap);
}

// Randomized equivalence with exhaustive search, both objectives.
class KnapsackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackFuzz, MatchesBruteForceMaximize) {
  Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    std::vector<KnapsackItem> items;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 14));
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({rng.uniform_int(1, 25),
                       static_cast<double>(rng.uniform_int(0, 400))});
    const std::int64_t cap = rng.uniform_int(0, 70);
    const auto dp =
        solve(items, cap, KnapsackObjective::kMaximizeValue);
    const auto bf = solve_knapsack_bruteforce(
        items, cap, KnapsackObjective::kMaximizeValue);
    EXPECT_DOUBLE_EQ(dp.total_value, bf.total_value);
    EXPECT_LE(dp.total_weight, cap);
  }
}

TEST_P(KnapsackFuzz, MatchesBruteForceFillThenMinimize) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 60; ++round) {
    std::vector<KnapsackItem> items;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 14));
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({rng.uniform_int(1, 25),
                       static_cast<double>(rng.uniform_int(0, 400))});
    const std::int64_t cap = rng.uniform_int(0, 70);
    const auto dp = solve(
        items, cap, KnapsackObjective::kMaximizeWeightMinimizeValue);
    const auto bf = solve_knapsack_bruteforce(
        items, cap, KnapsackObjective::kMaximizeWeightMinimizeValue);
    EXPECT_EQ(dp.total_weight, bf.total_weight);
    EXPECT_DOUBLE_EQ(dp.total_value, bf.total_value);
  }
}

TEST_P(KnapsackFuzz, ChosenSetIsConsistent) {
  Rng rng(GetParam() + 2000);
  for (int round = 0; round < 40; ++round) {
    std::vector<KnapsackItem> items;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 20));
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({rng.uniform_int(1, 40),
                       static_cast<double>(rng.uniform_int(0, 100))});
    const std::int64_t cap = rng.uniform_int(1, 120);
    for (const auto obj : {KnapsackObjective::kMaximizeValue,
                           KnapsackObjective::kMaximizeWeightMinimizeValue}) {
      const auto s = solve(items, cap, obj);
      std::int64_t w = 0;
      double v = 0.0;
      std::size_t prev = 0;
      bool first = true;
      for (const auto i : s.chosen) {
        ASSERT_LT(i, items.size());
        if (!first) {
          ASSERT_GT(i, prev);  // ascending, no duplicates
        }
        prev = i;
        first = false;
        w += items[i].weight;
        v += items[i].value;
      }
      EXPECT_EQ(w, s.total_weight);
      EXPECT_DOUBLE_EQ(v, s.total_value);
      EXPECT_LE(w, cap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace esched::core
