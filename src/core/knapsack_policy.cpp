#include "core/knapsack_policy.hpp"

namespace esched::core {

std::string KnapsackPolicy::name() const { return "Knapsack"; }

KnapsackSolution KnapsackPolicy::select(std::span<const PendingJob> window,
                                        const ScheduleContext& ctx) const {
  items_.clear();
  items_.reserve(window.size());
  for (const PendingJob& job : window) {
    items_.push_back({job.nodes, job.total_power()});
  }
  const auto objective = ctx.period == power::PricePeriod::kOnPeak
                             ? KnapsackObjective::kMaximizeWeightMinimizeValue
                             : KnapsackObjective::kMaximizeValue;
  return solve_knapsack(items_, ctx.free_nodes, objective, workspace_);
}

std::vector<std::size_t> KnapsackPolicy::prioritize(
    std::span<const PendingJob> window, const ScheduleContext& ctx) {
  return chosen_first_order(select(window, ctx).chosen, window.size());
}

}  // namespace esched::core
