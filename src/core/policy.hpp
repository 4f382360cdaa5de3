// The scheduling-policy interface: how a policy orders the scheduling
// window for dispatch (§4 of the paper).
//
// A policy is a pure prioritisation function: given the jobs in the window
// and the scheduling context (free nodes, price period), it returns the
// order in which the scheduler should *attempt* to start them. The
// scheduler (scheduler.hpp) then dispatches first-fit in that order, which
// simultaneously enforces the paper's utilization rule — no job waits while
// it fits — because every window job is eventually attempted.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "power/pricing.hpp"
#include "util/types.hpp"

namespace esched::core {

/// What a policy may know about one waiting job. Note `walltime` is the
/// user estimate; policies never see actual runtimes.
struct PendingJob {
  JobId id = 0;
  TimeSec submit = 0;
  NodeCount nodes = 0;          ///< n_i
  DurationSec walltime = 0;     ///< user runtime estimate
  Watts power_per_node = 0.0;   ///< p_i
  int queue = 0;                ///< queue class (lower = higher priority)

  /// Aggregate power n_i * p_i — the knapsack "value".
  Watts total_power() const {
    return power_per_node * static_cast<double>(nodes);
  }
};

/// Context of one scheduling decision.
struct ScheduleContext {
  TimeSec now = 0;
  NodeCount free_nodes = 0;       ///< N_t
  NodeCount system_nodes = 0;     ///< N
  power::PricePeriod period = power::PricePeriod::kOffPeak;
  /// Aggregate power of the jobs currently running (watts). Lets policies
  /// reason about budgets (PowerCapPolicy); 0 when the caller does not
  /// track power.
  Watts current_power = 0.0;
  /// When the current price period ends (the next tariff boundary).
  /// Lets policies weigh how much of a job's run overlaps the current
  /// period (EnergyKnapsackPolicy). 0 means "unknown/far away".
  TimeSec period_end = 0;
};

/// Base class for window-ordering policies.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Display name for reports ("FCFS", "Greedy", "Knapsack", ...).
  virtual std::string name() const = 0;

  /// Return a permutation of [0, window.size()): the order in which the
  /// scheduler should attempt to dispatch the window jobs.
  virtual std::vector<std::size_t> prioritize(
      std::span<const PendingJob> window, const ScheduleContext& ctx) = 0;

  /// True for policies with strict queue-order semantics (FCFS): the
  /// scheduler then uses classic EASY dispatch over the whole queue —
  /// in-order starts plus reservation-protected backfilling — instead of
  /// window-scoped first-fit.
  virtual bool strict_order() const { return false; }

  /// Aggregate power cap (watts) the dispatcher must respect right now:
  /// a job only starts if running power + its power stays at or below
  /// this. Infinity (the default) disables capping — the paper's design
  /// point; PowerCapPolicy models the budgeted prior work it compares
  /// against.
  virtual Watts power_budget(const ScheduleContext&) const {
    return kNoPowerBudget;
  }

  /// Sentinel for "no cap".
  static constexpr Watts kNoPowerBudget =
      std::numeric_limits<double>::infinity();
};

/// Validate that `order` is a permutation of [0, n); throws otherwise.
/// Policies are user-extensible, so the scheduler checks their output.
/// `marks` is caller-owned scratch (one byte per index), so a warm buffer
/// allocates nothing; on return it holds n set bytes.
void require_permutation(std::span<const std::size_t> order, std::size_t n,
                         std::vector<std::uint8_t>& marks);

/// Construct one of the built-in policies by name — the registry that lets
/// a declarative run::PolicySpec cross a process boundary (the worker
/// rebuilds the policy from its name alone). Known names: "fcfs",
/// "greedy" (per-node power, the paper's reading), "greedy-total"
/// (aggregate power ablation), "knapsack". Throws esched::Error listing
/// the valid names for anything else.
std::unique_ptr<SchedulingPolicy> make_policy_by_name(
    const std::string& name);

/// The names make_policy_by_name accepts, in registry order. Lets callers
/// (meta::validate, CLIs) reject bad names early with the same list the
/// factory would print.
const std::vector<std::string>& known_policy_names();

}  // namespace esched::core
