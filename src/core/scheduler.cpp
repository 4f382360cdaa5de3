#include "core/scheduler.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace esched::core {

namespace {

// Backfill outcome accounting: attempts are candidate jobs tested against
// the reservation, hits the ones actually started. Accumulated locally by
// the decide paths and flushed once per pass, so the scheduling hot loop
// stays atomic-free when observability is off.
void flush_backfill_counters(std::uint64_t attempts, std::uint64_t hits) {
  if (attempts == 0 || !obs::counters_enabled()) return;
  static obs::Counter& attempts_counter =
      obs::Registry::global().counter("sched.backfill_attempts");
  static obs::Counter& hits_counter =
      obs::Registry::global().counter("sched.backfill_hits");
  attempts_counter.add(attempts);
  hits_counter.add(hits);
}

/// Protect a blocked job of `blocker_nodes` with a reservation over
/// `occupancy` (the running set plus this pass's starts) and backfill
/// queue[from..] around it within the power `budget` (kNoPowerBudget for
/// none), appending each started index to `starts`. If the occupancy
/// snapshot cannot account for enough nodes (possible when callers pass
/// partial occupancy information), no reservation is computable — fail
/// open by not backfilling.
void backfill(const ScheduleContext& ctx, std::span<const PendingJob> queue,
              std::size_t from, NodeCount blocker_nodes, NodeCount free,
              Watts power, Watts budget,
              const std::vector<RunningJob>& occupancy,
              std::vector<std::size_t>& starts) {
  NodeCount accounted = free;
  for (const RunningJob& r : occupancy) accounted += r.nodes;
  if (accounted < blocker_nodes) return;
  Reservation reservation =
      compute_reservation(blocker_nodes, free, ctx.now, occupancy);
  std::uint64_t attempts = 0;
  std::uint64_t hits = 0;
  for (std::size_t j = from; j < queue.size(); ++j) {
    if (free == 0) break;
    ++attempts;
    if (!can_backfill(queue[j], free, ctx.now, reservation)) continue;
    if (power + queue[j].total_power() > budget) continue;
    // Backfills admitted via the extra-nodes clause consume them (they
    // still hold the nodes at shadow time); shadow-terminating backfills
    // leave the reservation untouched.
    if (ctx.now + queue[j].walltime > reservation.shadow_time) {
      reservation.extra_nodes -= queue[j].nodes;
    }
    starts.push_back(j);
    ++hits;
    free -= queue[j].nodes;
    power += queue[j].total_power();
  }
  flush_backfill_counters(attempts, hits);
}

}  // namespace

Scheduler::Scheduler(SchedulingPolicy& policy, const SchedulerConfig& config)
    : policy_(&policy), config_(config) {
  ESCHED_REQUIRE(config_.window_size >= 1, "window size must be >= 1");
  ESCHED_REQUIRE(config_.starvation_age >= 0,
                 "starvation age must be >= 0");
}

std::vector<std::size_t> Scheduler::decide(
    const ScheduleContext& ctx, std::span<const PendingJob> queue,
    std::span<const RunningJob> running) const {
  ESCHED_REQUIRE(ctx.free_nodes >= 0 && ctx.free_nodes <= ctx.system_nodes,
                 "free nodes outside [0, N]");
  if (queue.empty() || ctx.free_nodes == 0) return {};
  if (!policy_->strict_order()) return decide_window(ctx, queue, running);
  return config_.backfill_mode == BackfillMode::kConservative
             ? decide_conservative(ctx, queue, running)
             : decide_easy(ctx, queue, running);
}

std::vector<std::size_t> Scheduler::decide_conservative(
    const ScheduleContext& ctx, std::span<const PendingJob> queue,
    std::span<const RunningJob> running) const {
  AvailabilityProfile profile(ctx.now, ctx.system_nodes);
  NodeCount accounted = ctx.free_nodes;
  for (const RunningJob& r : running) {
    // Overdue jobs (est_end <= now) could end any moment; reserve one
    // second so they still occupy nodes *now* without blocking forever.
    const TimeSec end = std::max(r.est_end, ctx.now + 1);
    profile.reserve(ctx.now, end, r.nodes);
    accounted += r.nodes;
  }
  if (accounted < ctx.system_nodes) {
    // The caller's running snapshot does not cover all busy nodes (legal
    // for direct API users): park the unaccounted nodes for a long time
    // so the profile never over-promises.
    profile.reserve(ctx.now, ctx.now + 365 * kSecondsPerDay,
                    ctx.system_nodes - accounted);
  }

  std::vector<std::size_t> starts;
  const std::size_t depth =
      std::min(queue.size(), config_.conservative_depth);
  for (std::size_t i = 0; i < depth; ++i) {
    const TimeSec at =
        profile.find_earliest(queue[i].nodes, queue[i].walltime);
    profile.reserve(at, at + queue[i].walltime, queue[i].nodes);
    if (at == ctx.now) starts.push_back(i);
  }
  return starts;
}

std::vector<std::size_t> Scheduler::decide_easy(
    const ScheduleContext& ctx, std::span<const PendingJob> queue,
    std::span<const RunningJob> running) const {
  std::vector<std::size_t> starts;
  NodeCount free = ctx.free_nodes;
  // All started jobs join the running set for the reservation computation.
  std::vector<RunningJob> occupancy(running.begin(), running.end());

  std::size_t i = 0;
  while (i < queue.size() && queue[i].nodes <= free) {
    starts.push_back(i);
    free -= queue[i].nodes;
    occupancy.push_back({queue[i].nodes, ctx.now + queue[i].walltime});
    ++i;
  }
  if (i == queue.size()) return starts;

  // queue[i] is the blocker; protect it with a reservation and backfill.
  backfill(ctx, queue, i + 1, queue[i].nodes, free, ctx.current_power,
           SchedulingPolicy::kNoPowerBudget, occupancy, starts);
  return starts;
}

std::vector<std::size_t> Scheduler::decide_window(
    const ScheduleContext& ctx, std::span<const PendingJob> queue,
    std::span<const RunningJob> running) const {
  const std::size_t w = std::min(config_.window_size, queue.size());
  const std::span<const PendingJob> window = queue.subspan(0, w);

  std::vector<std::size_t> order = policy_->prioritize(window, ctx);
  require_permutation(order, w);

  if (config_.starvation_age > 0) {
    // Promote starved jobs to the front, oldest first (stable partition
    // preserves the policy's relative order inside each class; within the
    // starved class window indices are arrival-ordered already, so sort).
    auto starved = [&](std::size_t idx) {
      return ctx.now - window[idx].submit >= config_.starvation_age;
    };
    std::stable_partition(order.begin(), order.end(), starved);
    const auto mid = std::find_if(
        order.begin(), order.end(),
        [&](std::size_t idx) { return !starved(idx); });
    std::sort(order.begin(), mid);
  }

  std::vector<std::size_t> starts;
  NodeCount free = ctx.free_nodes;
  const Watts budget = policy_->power_budget(ctx);
  Watts power = ctx.current_power;
  std::vector<bool> started(w, false);
  for (const std::size_t idx : order) {
    if (window[idx].nodes <= free &&
        power + window[idx].total_power() <= budget) {
      starts.push_back(idx);
      started[idx] = true;
      free -= window[idx].nodes;
      power += window[idx].total_power();
    }
  }

  if (!config_.backfill_beyond_window || w == queue.size() || free == 0) {
    return starts;
  }

  // Some queue remains beyond the window. If a window job is still
  // blocked, protect the oldest such job with a reservation and backfill
  // from beyond the window; if the whole window started, the beyond-window
  // jobs are simply next in line and handled by the caller's re-invocation
  // (the scheduler loop runs until no job starts).
  std::size_t oldest_unstarted = w;
  for (std::size_t idx = 0; idx < w; ++idx) {
    if (!started[idx]) {
      oldest_unstarted = idx;
      break;
    }
  }
  if (oldest_unstarted == w) return starts;

  std::vector<RunningJob> occupancy(running.begin(), running.end());
  for (const std::size_t idx : starts) {
    occupancy.push_back({window[idx].nodes, ctx.now + window[idx].walltime});
  }
  backfill(ctx, queue, w, window[oldest_unstarted].nodes, free, power,
           budget, occupancy, starts);
  return starts;
}

}  // namespace esched::core
