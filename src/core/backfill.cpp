#include "core/backfill.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace esched::core {

Reservation compute_reservation(NodeCount blocker_nodes,
                                NodeCount free_nodes, TimeSec now,
                                std::span<const RunningJob> running,
                                std::vector<RunningJob>& by_end) {
  ESCHED_REQUIRE(blocker_nodes > 0, "blocker must need nodes");
  ESCHED_REQUIRE(free_nodes >= 0, "negative free nodes");

  if (blocker_nodes <= free_nodes) {
    // Not actually blocked; it can start immediately.
    return {now, free_nodes - blocker_nodes};
  }

  by_end.assign(running.begin(), running.end());
  for (RunningJob& r : by_end) r.est_end = std::max(r.est_end, now);
  std::sort(by_end.begin(), by_end.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return a.est_end < b.est_end;
            });

  NodeCount avail = free_nodes;
  for (const RunningJob& r : by_end) {
    avail += r.nodes;
    if (avail >= blocker_nodes) {
      return {r.est_end, avail - blocker_nodes};
    }
  }
  throw Error("blocker larger than the whole machine (" +
              std::to_string(blocker_nodes) + " nodes)");
}

bool can_backfill(const PendingJob& job, NodeCount free_nodes, TimeSec now,
                  const Reservation& reservation) {
  if (job.nodes > free_nodes) return false;
  // Ends (by estimate) before the blocker needs the nodes?
  if (now + job.walltime <= reservation.shadow_time) return true;
  // Or small enough to use only the shadow-time spare nodes?
  return job.nodes <= reservation.extra_nodes;
}

}  // namespace esched::core
