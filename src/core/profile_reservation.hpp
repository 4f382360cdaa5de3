// Availability profile: the data structure behind conservative
// backfilling.
//
// EASY backfilling (backfill.hpp) protects only the head job's
// reservation; *conservative* backfilling [Mu'alem & Feitelson '01] gives
// every queued job a reservation, so no backfill can delay anyone. That
// requires knowing, for any (start, duration, nodes) request, the
// earliest start at which enough nodes are free given the running jobs
// and all reservations made so far — which is what this profile answers.
//
// The profile is a step function of available nodes over time, stored as
// breakpoints. Reserving an interval subtracts nodes between two
// breakpoints. Sizes stay small because callers cap the reservation depth
// (SchedulerConfig::conservative_depth).
#pragma once

#include <vector>

#include "util/types.hpp"

namespace esched::core {

/// Step function of free nodes over [now, infinity), supporting interval
/// reservations and earliest-fit queries.
class AvailabilityProfile {
 public:
  /// Starts with `total` nodes free everywhere from `now` on.
  AvailabilityProfile(TimeSec now, NodeCount total);

  /// Subtract `nodes` over [t0, t1). Requires the interval to have at
  /// least `nodes` free (i.e. reserve only what find_earliest granted).
  void reserve(TimeSec t0, TimeSec t1, NodeCount nodes);

  /// Earliest t >= now() such that `nodes` are free during the whole of
  /// [t, t + duration). Always exists (the profile tail is unbounded).
  TimeSec find_earliest(NodeCount nodes, DurationSec duration) const;

  TimeSec now() const { return now_; }

 private:
  struct Step {
    TimeSec time;     ///< step start
    NodeCount free;   ///< free nodes from this step to the next
  };
  /// Index of the step containing t.
  std::size_t step_index(TimeSec t) const;

  TimeSec now_;
  NodeCount total_;
  std::vector<Step> steps_;  ///< sorted by time; last step extends forever
};

}  // namespace esched::core
