// The window-based scheduler (§4.1 of the paper).
//
// One decide() call is one scheduling pass at a tick. The scheduler
// consumes the wait queue in arrival order, forms the scheduling window
// (the first `window_size` jobs — arrival-ordered, which is what preserves
// fairness), lets the policy order the window, and dispatches first-fit.
// For strict-order policies (FCFS) it instead runs classic EASY over the
// whole queue: in-order starts plus reservation-protected backfilling.
//
// decide()'s answer depends only on its arguments — no state beyond
// scratch — which makes every scheduling decision unit-testable in
// isolation and keeps the simulator trivially deterministic. The scratch
// is a handful of buffers that one pass fills and the next reuses, so a
// warm scheduler allocates nothing per pass; decide() is therefore
// non-const, and a Scheduler is not to be shared between threads (the
// simulator owns one per run).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/backfill.hpp"
#include "core/policy.hpp"
#include "core/profile_reservation.hpp"

namespace esched::core {

/// How the strict-order (FCFS) path protects queued jobs while
/// backfilling.
enum class BackfillMode {
  /// EASY [Feitelson & Weil '98]: one reservation for the head job;
  /// anything that cannot delay it may jump. The paper's baseline.
  kEasy,
  /// Conservative [Mu'alem & Feitelson '01]: every queued job (up to
  /// `conservative_depth`) gets a reservation; backfills may delay no
  /// one. Lower utilization, stronger fairness guarantee.
  kConservative,
};

/// Scheduler knobs (paper defaults).
struct SchedulerConfig {
  /// Scheduling window size w (paper recommends 10-30; default 20).
  std::size_t window_size = 20;
  /// For window policies: after the window pass, EASY-backfill jobs from
  /// beyond the window against a reservation for the oldest unstarted
  /// window job. On by default: the paper's baseline backfills over the
  /// whole queue, and matching that scope is what keeps the window
  /// policies' wait times within the paper's "negligible impact" claim on
  /// backlogged workloads (see the ablation bench for the effect of
  /// turning it off).
  bool backfill_beyond_window = true;
  /// Reservation discipline of the strict-order (FCFS) dispatch path.
  BackfillMode backfill_mode = BackfillMode::kEasy;
  /// Reservation-book depth for conservative backfilling: queued jobs
  /// beyond this many get no reservation and simply wait (bounds the
  /// O(depth^2) profile work per pass).
  std::size_t conservative_depth = 100;
  /// Starvation guard (extension, disabled by default = 0): window jobs
  /// that have waited at least this long are dispatched in arrival order
  /// ahead of the policy's ordering, bounding the extra wait a power-based
  /// reordering can inflict on any single job.
  DurationSec starvation_age = 0;
};

/// Scheduling decision engine wrapping a policy. Holds no state beyond
/// per-pass scratch; one instance per thread.
class Scheduler {
 public:
  /// `policy` must outlive the scheduler.
  Scheduler(SchedulingPolicy& policy, const SchedulerConfig& config);

  /// One scheduling pass. `queue` holds waiting jobs in arrival order;
  /// `running` describes jobs currently on the machine (for reservations).
  /// Returns indices into `queue` to start now, in dispatch order; the
  /// returned jobs are guaranteed to fit in ctx.free_nodes collectively.
  /// The reference is to the scheduler's scratch: the next call
  /// overwrites it. Not thread-safe.
  const std::vector<std::size_t>& decide(
      const ScheduleContext& ctx, std::span<const PendingJob> queue,
      std::span<const RunningJob> running);

  /// Size the per-pass scratch for a queue of up to `max_queue` jobs and
  /// up to `max_running` jobs on the machine, so that decide() never
  /// grows it. A hint only: the scratch still grows past it.
  void reserve(std::size_t max_queue, std::size_t max_running);

  const SchedulingPolicy& policy() const { return *policy_; }
  const SchedulerConfig& config() const { return config_; }

 private:
  // Each fills starts_.
  void decide_easy(const ScheduleContext& ctx,
                   std::span<const PendingJob> queue,
                   std::span<const RunningJob> running);
  void decide_conservative(const ScheduleContext& ctx,
                           std::span<const PendingJob> queue,
                           std::span<const RunningJob> running);
  void decide_window(const ScheduleContext& ctx,
                     std::span<const PendingJob> queue,
                     std::span<const RunningJob> running);

  SchedulingPolicy* policy_;
  SchedulerConfig config_;

  // Per-pass scratch: decide() reuses these buffers' capacity.
  std::vector<std::size_t> starts_;       ///< decide()'s answer
  std::vector<RunningJob> occupancy_;     ///< running + this pass
  std::vector<RunningJob> by_end_;        ///< reservation's sort
  std::vector<std::uint8_t> marks_;       ///< permutation / started
};

}  // namespace esched::core
