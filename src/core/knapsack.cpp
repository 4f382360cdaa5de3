#include "core/knapsack.hpp"

#include <algorithm>
#include <numeric>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace esched::core {

namespace {

// Scale weights by gcd(all weights, capacity) to shrink the DP table.
std::int64_t common_divisor(std::span<const KnapsackItem> items,
                            std::int64_t capacity) {
  std::int64_t g = capacity;
  for (const auto& item : items) g = std::gcd(g, item.weight);
  return g > 0 ? g : 1;
}

// Lexicographic comparison for kMaximizeWeightMinimizeValue: is (w1, v1)
// better than (w2, v2)?
bool fill_better(std::int64_t w1, double v1, std::int64_t w2, double v2) {
  if (w1 != w2) return w1 > w2;
  return v1 < v2;
}

// The DP's own choice when every fitting item fits together. The fill
// objective takes them all: any other subset weighs less. The DP's strict
// `>` takes an item under kMaximizeValue only if it raises the value
// reached so far, so an item of value 0, or one absorbed by rounding (1
// after 1e300), stays out; `running` replays exactly that test. The
// total is summed in descending index order, as the DP's reconstruction
// sums it, so its bits match.
void take_all_fitting(std::span<const KnapsackItem> items,
                      std::int64_t capacity, KnapsackObjective objective,
                      KnapsackSolution& solution) {
  double running = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].weight > capacity) continue;
    if (objective == KnapsackObjective::kMaximizeValue) {
      if (!(running + items[i].value > running)) continue;
      running += items[i].value;
    }
    solution.chosen.push_back(i);
    solution.total_weight += items[i].weight;
  }
  for (std::size_t k = solution.chosen.size(); k-- > 0;)
    solution.total_value += items[solution.chosen[k]].value;
}

}  // namespace

KnapsackSolution solve_knapsack(std::span<const KnapsackItem> items,
                                std::int64_t capacity,
                                KnapsackObjective objective,
                                KnapsackWorkspace& workspace) {
  ESCHED_REQUIRE(capacity >= 0, "knapsack capacity must be >= 0");
  for (const auto& item : items) {
    ESCHED_REQUIRE(item.weight > 0, "knapsack weights must be positive");
    ESCHED_REQUIRE(item.value >= 0.0, "knapsack values must be >= 0");
  }

  KnapsackSolution solution;
  if (capacity == 0 || items.empty()) return solution;

  // The answer is forced when every fitting item fits together (no item
  // fitting at all is the empty case of that); decide it in one pass
  // before the table is touched. The sum stops before it would pass
  // `capacity`, so it never overflows.
  bool forced = true;
  std::int64_t fit_weight = 0;
  for (const auto& item : items) {
    if (item.weight > capacity) continue;
    if (item.weight > capacity - fit_weight) {
      forced = false;
      break;
    }
    fit_weight += item.weight;
  }
  if (forced) {
    take_all_fitting(items, capacity, objective, solution);
    if (obs::counters_enabled()) {
      static obs::Counter& forced_solves =
          obs::Registry::global().counter("knapsack.forced");
      forced_solves.add(1);
    }
    return solution;
  }

  const std::int64_t gcd = common_divisor(items, capacity);
  const auto cap = static_cast<std::size_t>(capacity / gcd);
  const std::size_t n = items.size();
  const std::size_t row = cap + 1;

  // A "warm" workspace already holds buffers big enough for this problem:
  // the assign() calls below then reuse capacity instead of allocating.
  // The hit/solve ratio is the observable payoff of workspace reuse.
  const bool workspace_warm = workspace.taken.capacity() >= n * row &&
                              workspace.best_value.capacity() >= row &&
                              workspace.best_weight.capacity() >= row;
  std::uint64_t dp_cells = 0;

  // DP over capacities. For kMaximizeValue: best[w] = max value using
  // capacity exactly <= w (classic relaxed form). For the fill objective we
  // track best (weight, value) pairs per capacity bound. `taken[i*row + w]`
  // is the reconstruction table: did item i join the optimum for bound w?
  // Memory: n * (cap+1) bytes — window <= a few hundred, cap <= system
  // nodes / gcd, i.e. a few MiB worst case — held as one contiguous
  // workspace buffer so a warm workspace allocates nothing per call.
  std::vector<double>& best_value = workspace.best_value;
  std::vector<std::int64_t>& best_weight = workspace.best_weight;
  std::vector<std::uint8_t>& taken = workspace.taken;
  best_value.assign(row, 0.0);
  best_weight.assign(row, 0);
  taken.assign(n * row, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const auto w_i = static_cast<std::size_t>(items[i].weight / gcd);
    const double v_i = items[i].value;
    if (w_i > cap) continue;
    dp_cells += static_cast<std::uint64_t>(cap - w_i + 1);
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
        better = fill_better(cand_weight, cand_value, best_weight[w],
                             best_value[w]);
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

  if (obs::counters_enabled()) {
    // References resolved once; the registry guarantees stable addresses.
    static obs::Counter& solves =
        obs::Registry::global().counter("knapsack.solves");
    static obs::Counter& cells =
        obs::Registry::global().counter("knapsack.dp_cells");
    static obs::Counter& reuse_hits =
        obs::Registry::global().counter("knapsack.workspace_reuse_hits");
    solves.add(1);
    cells.add(dp_cells);
    if (workspace_warm) reuse_hits.add(1);
  }
  return solution;
}

std::vector<std::size_t> chosen_first_order(
    std::span<const std::size_t> chosen, std::size_t n) {
  std::vector<std::size_t> order;
  order.reserve(n);
  order.assign(chosen.begin(), chosen.end());
  // `chosen` is ascending, so one merge walk skips it in the full range.
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (next < chosen.size() && chosen[next] == i) {
      ++next;
    } else {
      order.push_back(i);
    }
  }
  return order;
}

}  // namespace esched::core
