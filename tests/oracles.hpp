// Test oracles: independent checks that tests hold results and traces
// against. No production code calls them, so they live with the tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy_policy.hpp"
#include "core/knapsack.hpp"
#include "core/policy.hpp"
#include "run/spec.hpp"
#include "sim/result.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::core {

/// Exponential-time exact reference (<= ~25 items) used by tests to verify
/// the DP. Ties may be broken differently than solve_knapsack; compare
/// objective values (total_weight/total_value), not chosen sets.
inline KnapsackSolution solve_knapsack_bruteforce(
    std::span<const KnapsackItem> items, std::int64_t capacity,
    KnapsackObjective objective) {
  ESCHED_REQUIRE(items.size() <= 25, "brute force limited to 25 items");
  ESCHED_REQUIRE(capacity >= 0, "knapsack capacity must be >= 0");
  const std::size_t n = items.size();
  std::uint32_t best_mask = 0;
  std::int64_t best_w = 0;
  double best_v = 0.0;
  bool have_best = false;

  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::int64_t w = 0;
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        w += items[i].weight;
        v += items[i].value;
      }
    }
    if (w > capacity) continue;
    bool better;
    if (!have_best) {
      better = true;
    } else if (objective == KnapsackObjective::kMaximizeValue) {
      better = v > best_v;
    } else {
      // kMaximizeWeightMinimizeValue: more weight, then less value.
      better = w != best_w ? w > best_w : v < best_v;
    }
    if (better) {
      best_mask = mask;
      best_w = w;
      best_v = v;
      have_best = true;
    }
  }

  KnapsackSolution solution;
  for (std::size_t i = 0; i < n; ++i) {
    if (best_mask & (1u << i)) solution.chosen.push_back(i);
  }
  solution.total_weight = best_w;
  solution.total_value = best_v;
  return solution;
}

/// solve_knapsack's table DP run on every instance, including the forced
/// ones (every fitting item fits together) that solve_knapsack answers
/// without the table. Tests compare the two bit for bit: chosen set,
/// total weight and the bits of the total value.
inline KnapsackSolution solve_knapsack_dp(std::span<const KnapsackItem> items,
                                          std::int64_t capacity,
                                          KnapsackObjective objective) {
  ESCHED_REQUIRE(capacity >= 0, "knapsack capacity must be >= 0");
  for (const auto& item : items) {
    ESCHED_REQUIRE(item.weight > 0, "knapsack weights must be positive");
    ESCHED_REQUIRE(item.value >= 0.0, "knapsack values must be >= 0");
  }

  KnapsackSolution solution;
  if (capacity == 0 || items.empty()) return solution;

  std::int64_t gcd = capacity;
  for (const auto& item : items) gcd = std::gcd(gcd, item.weight);
  if (gcd <= 0) gcd = 1;
  const auto cap = static_cast<std::size_t>(capacity / gcd);
  const std::size_t n = items.size();
  const std::size_t row = cap + 1;

  std::vector<double> best_value(row, 0.0);
  std::vector<std::int64_t> best_weight(row, 0);
  std::vector<std::uint8_t> taken(n * row, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const auto w_i = static_cast<std::size_t>(items[i].weight / gcd);
    const double v_i = items[i].value;
    if (w_i > cap) continue;
    std::uint8_t* taken_row = taken.data() + i * row;
    // Descending capacity loop: each item used at most once.
    for (std::size_t w = cap; w >= w_i; --w) {
      const double cand_value = best_value[w - w_i] + v_i;
      const std::int64_t cand_weight =
          best_weight[w - w_i] + items[i].weight;
      bool better;
      if (objective == KnapsackObjective::kMaximizeValue) {
        better = cand_value > best_value[w];
      } else {
        // Lexicographic: more weight, then less value.
        better = cand_weight != best_weight[w] ? cand_weight > best_weight[w]
                                               : cand_value < best_value[w];
      }
      if (better) {
        best_value[w] = cand_value;
        best_weight[w] = cand_weight;
        taken_row[w] = 1;
      }
      if (w == w_i) break;  // std::size_t cannot go below 0
    }
  }

  // Reconstruct by walking items backwards from the full capacity.
  std::size_t w = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (taken[i * row + w]) {
      solution.chosen.push_back(i);
      solution.total_weight += items[i].weight;
      solution.total_value += items[i].value;
      w -= static_cast<std::size_t>(items[i].weight / gcd);
    }
  }
  std::reverse(solution.chosen.begin(), solution.chosen.end());
  return solution;
}

/// The order GreedyPowerPolicy must give: window indices
/// std::stable_sort-ed by power key, ascending on peak and descending off
/// peak, so that key ties keep arrival order.
inline std::vector<std::size_t> greedy_order_stable_sort(
    std::span<const PendingJob> window, GreedyKey key,
    power::PricePeriod period) {
  std::vector<std::size_t> order(window.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto power_key = [&](std::size_t i) {
    return key == GreedyKey::kPowerPerNode ? window[i].power_per_node
                                           : window[i].total_power();
  };
  const bool ascending = period == power::PricePeriod::kOnPeak;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ka = power_key(a);
                     const double kb = power_key(b);
                     if (ka == kb) return false;
                     return ascending ? ka < kb : ka > kb;
                   });
  return order;
}

}  // namespace esched::core

namespace esched::metrics {

/// Consistency checks on a simulation result; throws esched::Error on the
/// first violated invariant (start >= submit, finish > start, job fits the
/// machine, horizon covers all records, at no instant are more than N
/// nodes allocated).
inline void validate_result(const sim::SimResult& result) {
  ESCHED_REQUIRE(result.system_nodes > 0, "result lacks a system size");
  // Sweep start/finish change-points to verify the N-node capacity
  // invariant at every instant.
  std::vector<std::pair<TimeSec, NodeCount>> deltas;
  deltas.reserve(result.records.size() * 2);
  for (const sim::JobRecord& r : result.records) {
    ESCHED_REQUIRE(r.start >= r.submit,
                   "job " + std::to_string(r.id) + " started before submit");
    ESCHED_REQUIRE(r.finish > r.start,
                   "job " + std::to_string(r.id) + " has no runtime");
    ESCHED_REQUIRE(r.nodes > 0 && r.nodes <= result.system_nodes,
                   "job " + std::to_string(r.id) + " size out of range");
    ESCHED_REQUIRE(r.submit >= result.horizon_begin &&
                       r.finish <= result.horizon_end,
                   "job " + std::to_string(r.id) + " outside the horizon");
    deltas.emplace_back(r.start, r.nodes);
    deltas.emplace_back(r.finish, -r.nodes);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // releases before allocations
            });
  NodeCount busy = 0;
  for (const auto& [t, delta] : deltas) {
    busy += delta;
    ESCHED_REQUIRE(busy >= 0, "negative occupancy at t=" +
                                  std::to_string(t));
    ESCHED_REQUIRE(busy <= result.system_nodes,
                   "over-allocation at t=" + std::to_string(t));
  }
  ESCHED_REQUIRE(busy == 0, "occupancy did not return to zero");
}

}  // namespace esched::metrics

namespace esched::trace {

/// Offered utilization per 30-day month (node-seconds attributed to the
/// month of *submission*, matching how the generators are calibrated).
inline std::vector<double> monthly_offered_utilization(const Trace& trace,
                                                       std::size_t months) {
  ESCHED_REQUIRE(months > 0, "need at least one month");
  std::vector<double> node_seconds(months, 0.0);
  for (const Job& j : trace.jobs()) {
    const auto m = static_cast<std::size_t>(month_index(j.submit));
    if (m < months) node_seconds[m] += j.node_seconds();
  }
  std::vector<double> util(months);
  const double capacity = static_cast<double>(trace.system_nodes()) *
                          static_cast<double>(kSecondsPerMonth);
  for (std::size_t m = 0; m < months; ++m)
    util[m] = node_seconds[m] / capacity;
  return util;
}

}  // namespace esched::trace

namespace esched::run {

/// One cell run alone through a cold trace cache: the result a group, a
/// pool or a fleet must reproduce for that cell.
inline MemberOutcome run_alone(const JobSpec& spec) {
  TraceCache traces;
  return std::move(execute_group({spec}, 0, traces).front());
}

}  // namespace esched::run
