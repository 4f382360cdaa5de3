// EASY backfilling support [Feitelson & Weil '98].
//
// When the highest-priority waiting job ("blocker") does not fit, EASY
// computes a reservation for it — the earliest time enough nodes will be
// free, assuming running jobs end at their walltime estimates — and then
// starts any later job that fits now *and* does not delay that
// reservation: either it is estimated to finish before the shadow time, or
// it uses only nodes that will still be spare once the blocker starts.
#pragma once

#include <span>
#include <vector>

#include "core/policy.hpp"
#include "util/types.hpp"

namespace esched::core {

/// A job currently occupying nodes, as seen by the reservation computation.
struct RunningJob {
  NodeCount nodes = 0;
  /// Estimated completion (start + walltime estimate). May lie in the past
  /// for jobs overrunning their estimate; the computation clamps to now.
  TimeSec est_end = 0;
};

/// A reservation for a blocked job.
struct Reservation {
  /// Earliest time the blocker can start, by the estimates ("shadow time").
  TimeSec shadow_time = 0;
  /// Nodes still idle at shadow_time once the blocker has started; a
  /// backfilled job of at most this size can never delay the blocker.
  NodeCount extra_nodes = 0;
};

/// Compute the EASY reservation for a blocker needing `blocker_nodes`
/// given `free_nodes` idle now and the running set. Requires that the
/// blocker fits the machine (free + running nodes >= blocker_nodes).
/// `by_end` is caller-owned scratch: the running set is copied into it
/// and sorted by estimated end, so a warm buffer allocates nothing.
Reservation compute_reservation(NodeCount blocker_nodes,
                                NodeCount free_nodes, TimeSec now,
                                std::span<const RunningJob> running,
                                std::vector<RunningJob>& by_end);

/// EASY admission test: can `job` start now without delaying `reservation`?
/// (Requires job.nodes <= free_nodes; checked.)
bool can_backfill(const PendingJob& job, NodeCount free_nodes, TimeSec now,
                  const Reservation& reservation);

}  // namespace esched::core
