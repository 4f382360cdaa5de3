#include "core/profile_reservation.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace esched::core {

AvailabilityProfile::AvailabilityProfile(TimeSec now, NodeCount total)
    : now_(now), total_(total) {
  ESCHED_REQUIRE(total_ > 0, "profile needs a positive node count");
  steps_.push_back({now_, total_});
}

std::size_t AvailabilityProfile::step_index(TimeSec t) const {
  ESCHED_REQUIRE(t >= now_, "query before the profile start");
  // Last step with time <= t.
  const auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](TimeSec v, const Step& s) { return v < s.time; });
  return static_cast<std::size_t>(it - steps_.begin()) - 1;
}

void AvailabilityProfile::reserve(TimeSec t0, TimeSec t1, NodeCount nodes) {
  ESCHED_REQUIRE(t0 >= now_ && t0 < t1, "bad reservation interval");
  ESCHED_REQUIRE(nodes > 0, "reservation must take nodes");

  // Ensure breakpoints exist at t0 and t1.
  auto split_at = [&](TimeSec t) {
    const std::size_t i = step_index(t);
    if (steps_[i].time != t) {
      steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    {t, steps_[i].free});
    }
  };
  split_at(t0);
  split_at(t1);

  for (std::size_t i = step_index(t0); steps_[i].time < t1; ++i) {
    ESCHED_REQUIRE(steps_[i].free >= nodes,
                   "over-reservation in availability profile");
    steps_[i].free -= nodes;
  }
}

TimeSec AvailabilityProfile::find_earliest(NodeCount nodes,
                                           DurationSec duration) const {
  ESCHED_REQUIRE(nodes > 0 && nodes <= total_,
                 "request outside the machine");
  ESCHED_REQUIRE(duration > 0, "request needs a duration");

  // Scan candidate starts: the profile's step boundaries.
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].free < nodes) continue;
    const TimeSec start = steps_[i].time;
    const TimeSec end = start + duration;
    // Check the whole window [start, end) stays feasible.
    bool ok = true;
    for (std::size_t j = i; j < steps_.size() && steps_[j].time < end;
         ++j) {
      if (steps_[j].free < nodes) {
        ok = false;
        break;
      }
    }
    if (ok) return start;
  }
  // Unreachable: the final step has total_ free... unless reservations
  // extend it; then the step after the last reservation end qualifies.
  throw Error("availability profile exhausted (internal error)");
}

}  // namespace esched::core
