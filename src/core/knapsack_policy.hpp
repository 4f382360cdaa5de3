// The paper's 0-1 Knapsack policy (§4.2.2): select the subset of window
// jobs that fits into the free nodes N_t while maximising aggregate power
// Σ n_i·p_i during off-peak pricing, or packing maximally with minimum
// aggregate power during on-peak pricing (Eq. 2 plus the utilization rule;
// see knapsack.hpp for why on-peak is fill-then-minimise rather than a bare
// minimisation, which would trivially select nothing).
//
// prioritize() returns the chosen subset first (in arrival order — fairness
// among selected jobs), followed by the unchosen jobs (arrival order). The
// scheduler's first-fit dispatch then starts the selection and, because the
// selection is maximal, the trailing jobs only start in rare corner cases
// (they act as a utilization safety net).
#pragma once

#include "core/knapsack.hpp"
#include "core/policy.hpp"

namespace esched::core {

/// Knapsack-based window ordering. O(window) per decision when the
/// selection is forced (no job fits, or every fitting job fits together),
/// else O(window * N_t / gcd).
/// Instances hold reusable solver scratch space, so they are cheap to call
/// every tick but not thread-safe: use one instance per thread (the sweep
/// runner constructs policies per task for exactly this reason).
class KnapsackPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override;
  std::vector<std::size_t> prioritize(std::span<const PendingJob> window,
                                      const ScheduleContext& ctx) override;

  /// The knapsack selection itself (indices into `window`, ascending);
  /// exposed for tests and for callers that want the raw subset.
  KnapsackSolution select(std::span<const PendingJob> window,
                          const ScheduleContext& ctx) const;

 private:
  // Scratch reused across scheduling passes (mutable: select() is
  // logically const — it computes a value — but warms these buffers).
  mutable KnapsackWorkspace workspace_;
  mutable std::vector<KnapsackItem> items_;
};

}  // namespace esched::core
