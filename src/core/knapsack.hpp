// Reusable 0-1 knapsack solver (the paper's Eq. 2 dynamic program).
//
// Items have integral weights (node counts) and real values (aggregate
// power n_i * p_i). The solver supports both objectives the paper needs:
// maximise value (off-peak) and "fill-then-minimise" (on-peak: maximise
// node usage, breaking ties by minimum aggregate power — the paper's
// "minimise the total value ... with the constraint of knapsack size"
// combined with its utilization rule, which forbids leaving a fitting job
// unscheduled). Weights are divided by their GCD with the capacity first,
// which keeps the DP table small on rack-granular machines like Mira
// (weights in multiples of 1,024 nodes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace esched::core {

/// One knapsack item.
struct KnapsackItem {
  std::int64_t weight = 0;  ///< nodes requested; must be > 0
  double value = 0.0;       ///< aggregate power; must be >= 0
};

/// Solver result: chosen item indices (ascending), total weight and value.
struct KnapsackSolution {
  std::vector<std::size_t> chosen;
  std::int64_t total_weight = 0;
  double total_value = 0.0;
};

/// Objective variants.
enum class KnapsackObjective {
  /// Maximise total value subject to the capacity (Eq. 2 as written; the
  /// paper's off-peak selection). All values >= 0, so the optimum is
  /// automatically maximal: no unchosen item fits in the leftover space.
  kMaximizeValue,
  /// Lexicographically (max total weight, then min total value): pack as
  /// many nodes as possible, preferring the cheapest-power packing. The
  /// paper's on-peak selection under the no-idle-nodes rule.
  kMaximizeWeightMinimizeValue,
};

/// Reusable scratch buffers for solve_knapsack. The solver is called every
/// scheduling pass (tens of thousands of times per simulation), and the
/// reconstruction table alone is items x (capacity/gcd + 1) bytes; keeping
/// one workspace per policy instance makes those allocations one-time
/// capacity growth instead of per-call heap traffic. A warm workspace
/// (same or smaller problem size) allocates nothing (knapsack_test pins
/// this down by asserting stable buffer addresses).
///
/// Not thread-safe: one workspace per thread/policy instance — which the
/// sweep runner guarantees by constructing policies per task.
struct KnapsackWorkspace {
  std::vector<double> best_value;        ///< DP value per capacity bound
  std::vector<std::int64_t> best_weight; ///< DP weight per capacity bound
  std::vector<std::uint8_t> taken;       ///< flattened n x (cap+1) table
};

/// Solve 0-1 knapsack over `items` with the given capacity and objective.
/// O(items) when the answer is forced: no item fits, or every fitting
/// item fits together (the common case on a scheduling pass); the DP's
/// own choice is then returned without the table. Otherwise O(items *
/// capacity / gcd) time and space. Items with weight > capacity are never
/// chosen. Deterministic: among equal-objective solutions the
/// DP prefers *not* taking later items, so earlier (lower-index = older)
/// jobs win ties. `workspace` is caller-owned scratch space: zero heap
/// allocations for the DP tables once it has grown to the problem size.
KnapsackSolution solve_knapsack(std::span<const KnapsackItem> items,
                                std::int64_t capacity,
                                KnapsackObjective objective,
                                KnapsackWorkspace& workspace);

/// The window order the knapsack policies hand the scheduler: the
/// `chosen` indices (ascending) first, then every other index in
/// [0, n) ascending. Arrival order within each part.
std::vector<std::size_t> chosen_first_order(
    std::span<const std::size_t> chosen, std::size_t n);

}  // namespace esched::core
