// Extension policy: knapsack over *period-overlapped energy* instead of
// instantaneous power.
//
// The paper's Knapsack policy values a job at its aggregate power
// n_i * p_i, ignoring how long the job will actually draw that power
// inside the current price period: a 10-minute hot job placed off-peak
// buys almost nothing, while a 10-hour one buys a lot. This variant
// values each job by the energy it is estimated to consume before the
// period flips:
//
//   value_i = n_i * p_i * min(walltime_i, period_end - now)
//
// Off-peak: maximise that value (pack the most cheap energy). On-peak:
// maximise packed nodes, tie-broken by minimum period-overlapped energy
// (same fill-then-minimise construction as the base policy, so the
// utilization rule still holds). Falls back to the base behaviour when
// the caller does not provide ctx.period_end.
#pragma once

#include "core/knapsack.hpp"
#include "core/policy.hpp"

namespace esched::core {

/// Knapsack on estimated within-period energy (extension; see header).
/// Holds reusable solver scratch space; one instance per thread.
class EnergyKnapsackPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override;
  std::vector<std::size_t> prioritize(std::span<const PendingJob> window,
                                      const ScheduleContext& ctx) override;

  /// The raw selection, exposed for tests.
  /// Valid until the next select() or prioritize() call.
  const KnapsackSolution& select(std::span<const PendingJob> window,
                                 const ScheduleContext& ctx) const;

 private:
  mutable KnapsackWorkspace workspace_;
  mutable std::vector<KnapsackItem> items_;
};

}  // namespace esched::core
