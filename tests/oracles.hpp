// Test oracles: independent checks that tests hold results and traces
// against. No production code calls them, so they live with the tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/knapsack.hpp"
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
