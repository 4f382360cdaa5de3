#include "run/pool_run.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
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

EndpointClock::time_point wake_time(const Lanes& lanes,
                                    const CellQueue& queue) {
  const EndpointClock::time_point deadline = lanes.next_deadline();
  if (lanes.idle_lanes() == 0) return deadline;
  return std::min(deadline, queue.next_ready());
}

PoolRun::PoolRun(const std::vector<JobSpec>& sweep, const RetryPolicy& retry,
                 const PoolNames& names, SweepStats& stats,
                 const ProgressCallback& progress, obs::Tracer* tracer)
    : names_(names),
      stats_(stats),
      progress_(progress),
      tracer_(tracer),
      queue_(retry, SweepRunner::prefix_sharing_default()),
      results_(sweep.size()),
      wall_start_(Clock::now()) {
  stats_ = SweepStats{};
  stats_.tasks = sweep.size();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    queue_.add(cell_key(sweep[i]), sweep[i], {{}, i}, wall_start_);
  }
}

std::vector<sim::SimResult> PoolRun::run(Lanes& lanes) {
  stats_.worker_busy_seconds.assign(lanes.lane_count(), 0.0);
  while (!queue_.empty()) {
    const Clock::time_point now = Clock::now();
    lanes.tick(now);
    if (queue_.empty()) break;  // settled by a lane's own clock
    const std::string unusable = lanes.unusable_reason(now);
    if (!unusable.empty()) throw Error(names_.pool + (": " + unusable));
    std::vector<struct pollfd> fds;
    lanes.register_fds(fds);
    if (poll_fds(fds, poll_timeout_ms(wake_time(lanes, queue_), now),
                 names_.pool)) {
      lanes.on_poll(fds);
    }
  }
  stats_.wall_seconds = seconds_since(wall_start_);
  return std::move(results_);
}

bool PoolRun::claim(std::size_t /*lane*/, Clock::time_point now,
                    Dispatch& work) {
  return queue_.claim(now, work);
}

bool PoolRun::on_result(std::size_t lane, const Endpoint& ep,
                        std::vector<std::uint8_t> bytes,
                        Clock::time_point now) {
  std::vector<SettledCell> settled;
  if (!queue_.complete(ep.task, std::move(bytes), settled)) return false;
  throw_failed(settled);

  const double seconds =
      std::chrono::duration<double>(now - ep.dispatched).count();
  if (obs::counters_enabled()) {
    obs::Registry::global().timer(names_.task_timer).record(
        static_cast<std::uint64_t>(seconds * 1e9));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    const std::string& label = settled.front().label;
    const std::uint32_t track =
        names_.track_base + static_cast<std::uint32_t>(lane);
    tracer_->complete_span(names_.span +
                               (label.empty() ? std::to_string(ep.task)
                                              : label) +
                               "#" + std::to_string(ep.attempt),
                           names_.category, ep.dispatched, now, track);
    // Flow start anchored on the dispatch span; the worker tags its
    // simulate span with the same id (task + 1), and the fleet
    // aggregator emits the matching finish when it stitches that span.
    tracer_->flow_event('s', ep.task + 1, "dispatch", names_.category, 1,
                        track, ep.dispatched);
  }
  stats_.worker_busy_seconds[lane] += seconds;
  for (const SettledCell& cell : settled) {
    if (cell.rebilled) {
      obs::bump("pool.cells_rebilled");
      ++stats_.rebilled_cells;
    } else {
      ++stats_.simulated_cells;
    }
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
      if (progress_) {
        progress_(sweep_progress(cells_done_, results_.size(), wall_start_));
      }
    }
  }
  return true;
}

void PoolRun::on_transient(std::size_t /*lane*/, const Endpoint& ep,
                           const std::string& reason, Clock::time_point now) {
  throw_failed(queue_.fail_attempt(ep.task, reason, now));
  if (names_.retries != nullptr) obs::bump(names_.retries);
}

void PoolRun::on_error(std::size_t /*lane*/, const Endpoint& ep,
                       const std::string& message) {
  throw_failed(queue_.fail_task(ep.task, message));
  throw Error("kError for task " + std::to_string(ep.task) +
              ", which is not in flight");
}

}  // namespace esched::run
