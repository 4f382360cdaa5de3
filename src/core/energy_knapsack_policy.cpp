#include "core/energy_knapsack_policy.hpp"

#include <algorithm>

namespace esched::core {

std::string EnergyKnapsackPolicy::name() const { return "EnergyKnapsack"; }

const KnapsackSolution& EnergyKnapsackPolicy::select(
    std::span<const PendingJob> window, const ScheduleContext& ctx) const {
  items_.clear();
  for (const PendingJob& job : window) {
    // Seconds of this job expected to land in the current price period.
    // Without a known boundary, weight by the full walltime estimate
    // (equivalent to the base policy up to a constant for same-walltime
    // mixes, and strictly more informative otherwise).
    const double overlap =
        ctx.period_end > ctx.now
            ? static_cast<double>(
                  std::min(job.walltime, ctx.period_end - ctx.now))
            : static_cast<double>(job.walltime);
    items_.push_back({job.nodes, job.total_power() * overlap});
  }
  const auto objective = ctx.period == power::PricePeriod::kOnPeak
                             ? KnapsackObjective::kMaximizeWeightMinimizeValue
                             : KnapsackObjective::kMaximizeValue;
  return solve_knapsack(items_, ctx.free_nodes, objective, workspace_);
}

std::vector<std::size_t> EnergyKnapsackPolicy::prioritize(
    std::span<const PendingJob> window, const ScheduleContext& ctx) {
  return chosen_first_order(select(window, ctx).chosen, window.size());
}

}  // namespace esched::core
