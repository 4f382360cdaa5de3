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

/// Throw the first failure among `settled`, if any.
void throw_failed(const std::vector<SettledCell>& settled) {
  for (const SettledCell& cell : settled) {
    if (!cell.ok()) throw Error(cell.error);
  }
}

}  // namespace

PoolRun::PoolRun(const std::vector<JobSpec>& sweep, const RetryPolicy& retry,
                 const char* task_timer, SweepStats& stats,
                 const ProgressCallback& progress, bool stamp_trace)
    : task_timer_(task_timer),
      stats_(stats),
      progress_(progress),
      queue_(retry, SweepRunner::prefix_sharing_default(), stamp_trace),
      results_(sweep.size()),
      wall_start_(EndpointClock::now()) {
  stats_ = SweepStats{};
  stats_.tasks = sweep.size();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    queue_.add(cell_key(sweep[i]), sweep[i], {{}, i}, wall_start_);
  }
}

void PoolRun::set_lanes(std::size_t lanes) {
  stats_.worker_busy_seconds.assign(lanes, 0.0);
}

bool PoolRun::complete(std::size_t task, std::vector<std::uint8_t> reply,
                       double seconds, std::size_t lane, std::string& label) {
  std::vector<SettledCell> settled;
  if (!queue_.complete(task, std::move(reply), settled)) return false;
  throw_failed(settled);
  label = settled.front().label;

  if (obs::counters_enabled()) {
    obs::Registry::global().timer(task_timer_).record(
        static_cast<std::uint64_t>(seconds * 1e9));
  }
  obs::bump("pool.cells_rebilled", settled.size() - 1);
  ++stats_.simulated_cells;
  stats_.rebilled_cells += settled.size() - 1;
  task_seconds_.push_back(seconds);
  stats_.worker_busy_seconds[lane] += seconds;
  for (const SettledCell& cell : settled) {
    const std::size_t first = cell.waiters.front().index;
    try {
      results_[first] = wire::decode_result(cell.result);
    } catch (const Error& e) {
      throw Error("sweep cell \"" + cell.label +
                  "\" failed: undecodable result (" + e.what() + ")");
    }
    stats_.copied_cells += cell.waiters.size() - 1;
    for (const CellWaiter& waiter : cell.waiters) {
      if (waiter.index != first) results_[waiter.index] = results_[first];
      ++cells_done_;
      if (!progress_) continue;
      SweepProgress p;
      p.done = cells_done_;
      p.total = results_.size();
      p.elapsed_seconds = seconds_since(wall_start_);
      p.eta_seconds = p.elapsed_seconds / static_cast<double>(p.done) *
                      static_cast<double>(p.total - p.done);
      progress_(p);
    }
  }
  return true;
}

void PoolRun::fail_attempt(std::size_t task, const std::string& reason,
                           EndpointClock::time_point now) {
  throw_failed(queue_.fail_attempt(task, reason, now));
}

void PoolRun::fail_task(std::size_t task, const std::string& message) {
  throw_failed(queue_.fail_task(task, message));
  throw Error("fail_task: task " + std::to_string(task) + " not in flight");
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
