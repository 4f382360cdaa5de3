#include "run/pool_run.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/registry.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::run {

namespace {

double seconds_since(EndpointClock::time_point start) {
  return std::chrono::duration<double>(EndpointClock::now() - start).count();
}

/// The sharing plan of `sweep`, one task per group, after resetting
/// `stats` with it.
std::vector<ShareGroup> plan(const std::vector<JobSpec>& sweep,
                             SweepStats& stats) {
  std::vector<ShareGroup> groups = plan_groups(
      sweep, SweepRunner::prefix_sharing_default(), wire::kMaxTaskMembers);
  stats = SweepStats{};
  stats.tasks = sweep.size();
  stats.count_sharing(groups);
  return groups;
}

/// A member's spec as task `task` ships it: with the trace context
/// (1, task + 1) when `stamp` asks for it.
JobSpec task_spec(const JobSpec& spec, std::size_t task, bool stamp) {
  JobSpec out = spec;
  if (stamp) {
    out.trace_id = 1;
    out.parent_span_id = static_cast<std::uint64_t>(task) + 1;
  }
  return out;
}

std::vector<JobSpec> leaders_of(const std::vector<JobSpec>& sweep,
                                const std::vector<ShareGroup>& groups,
                                bool stamp) {
  std::vector<JobSpec> leaders;
  leaders.reserve(groups.size());
  for (std::size_t k = 0; k < groups.size(); ++k) {
    leaders.push_back(task_spec(sweep[groups[k].members.front()], k, stamp));
  }
  return leaders;
}

}  // namespace

PoolRun::PoolRun(const std::vector<JobSpec>& sweep, const RetryPolicy& retry,
                 const char* task_timer, SweepStats& stats,
                 const ProgressCallback& progress, bool stamp_trace)
    : sweep_(sweep),
      task_timer_(task_timer),
      stats_(stats),
      progress_(progress),
      groups_(plan(sweep, stats)),
      leaders_(leaders_of(sweep, groups_, stamp_trace)),
      results_(sweep.size()),
      wall_start_(EndpointClock::now()),
      ledger_(leaders_, retry, wall_start_) {
  payloads_.reserve(groups_.size());
  for (std::size_t k = 0; k < groups_.size(); ++k) {
    std::vector<JobSpec> members;
    members.reserve(groups_[k].members.size());
    for (const std::size_t i : groups_[k].members) {
      members.push_back(task_spec(sweep[i], k, stamp_trace));
    }
    payloads_.push_back(wire::encode_task(members));  // throws on bad spec
  }
}

void PoolRun::set_lanes(std::size_t lanes) {
  stats_.worker_busy_seconds.assign(lanes, 0.0);
}

bool PoolRun::claim(EndpointClock::time_point now, Dispatch& work) {
  const std::size_t task = ledger_.claim_ready(now);
  if (task == kNoTask) return false;
  work.task = task;
  work.attempt = ledger_.begin_attempt(task);
  work.payload = &payloads_[task];
  return true;
}

bool PoolRun::complete(std::size_t task,
                       const std::vector<std::uint8_t>& reply, double seconds,
                       std::size_t lane) {
  const ShareGroup& group = groups_[task];
  std::vector<wire::Outcome> outcomes;
  try {
    outcomes = wire::decode_outcomes(reply);
  } catch (const Error&) {
    return false;
  }
  if (outcomes.size() != group.members.size()) return false;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (outcomes[k].ok) continue;
    // Deterministic failure: retrying reruns the same simulation.
    ledger_.fail_deterministic(
        task, k == 0 ? outcomes[k].error
                     : "member \"" + sweep_[group.members[k]].label +
                           "\": " + outcomes[k].error);
  }
  std::vector<sim::SimResult> produced;
  produced.reserve(outcomes.size());
  try {
    for (const wire::Outcome& o : outcomes) {
      produced.push_back(wire::decode_result(o.result));
    }
  } catch (const Error&) {
    return false;
  }

  if (obs::counters_enabled()) {
    obs::Registry::global().timer(task_timer_).record(
        static_cast<std::uint64_t>(seconds * 1e9));
  }
  obs::bump("pool.cells_rebilled", group.members.size() - 1);
  ledger_.complete(task);
  task_seconds_.push_back(seconds);
  stats_.worker_busy_seconds[lane] += seconds;
  const auto settle = [&](std::size_t cell, sim::SimResult result) {
    results_[cell] = std::move(result);
    ++cells_done_;
    if (!progress_) return;
    SweepProgress p;
    p.done = cells_done_;
    p.total = results_.size();
    p.elapsed_seconds = seconds_since(wall_start_);
    p.eta_seconds = p.elapsed_seconds / static_cast<double>(p.done) *
                    static_cast<double>(p.total - p.done);
    progress_(p);
  };
  for (const ShareGroup::Copy& copy : group.copies) {
    settle(copy.cell, produced[copy.member]);
  }
  for (std::size_t k = 0; k < produced.size(); ++k) {
    settle(group.members[k], std::move(produced[k]));
  }
  return true;
}

std::vector<sim::SimResult> PoolRun::finish() {
  stats_.wall_seconds = seconds_since(wall_start_);
  if (!task_seconds_.empty()) {
    stats_.task_min_seconds = task_seconds_.front();
    stats_.task_max_seconds = task_seconds_.front();
    for (const double s : task_seconds_) {
      stats_.cpu_seconds += s;
      stats_.task_min_seconds = std::min(stats_.task_min_seconds, s);
      stats_.task_max_seconds = std::max(stats_.task_max_seconds, s);
    }
    stats_.task_mean_seconds =
        stats_.cpu_seconds / static_cast<double>(task_seconds_.size());
  }
  // Round trips of successful attempts: the pool twin of the in-process
  // runner's sim latency.
  stats_.sim_latency = latency_stats(task_seconds_);
  return std::move(results_);
}

}  // namespace esched::run
