#include "run/pool_run.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/registry.hpp"
#include "run/wire.hpp"

namespace esched::run {

namespace {

double seconds_since(EndpointClock::time_point start) {
  return std::chrono::duration<double>(EndpointClock::now() - start).count();
}

}  // namespace

PoolRun::PoolRun(const std::vector<JobSpec>& cells, const RetryPolicy& retry,
                 std::size_t lanes, const char* task_timer, SweepStats& stats,
                 const ProgressCallback& progress)
    : cells_(cells),
      task_timer_(task_timer),
      stats_(stats),
      progress_(progress),
      results_(cells.size()),
      wall_start_(EndpointClock::now()),
      ledger_(cells, retry, wall_start_) {
  payloads_.reserve(cells.size());
  for (const JobSpec& spec : cells) {
    payloads_.push_back(wire::encode_job(spec));  // throws on bad spec
  }
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

void PoolRun::complete(std::size_t task, sim::SimResult result,
                       double seconds, std::size_t lane) {
  if (obs::counters_enabled()) {
    obs::Registry::global().timer(task_timer_).record(
        static_cast<std::uint64_t>(seconds * 1e9));
  }
  results_[task] = std::move(result);
  ledger_.complete(task);
  task_seconds_.push_back(seconds);
  stats_.worker_busy_seconds[lane] += seconds;
  if (progress_) {
    SweepProgress p;  // run_deduplicated fills in total and eta
    p.done = ledger_.done_count();
    p.elapsed_seconds = seconds_since(wall_start_);
    progress_(p);
  }
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

std::vector<sim::SimResult> run_deduplicated(
    const std::vector<JobSpec>& sweep, SweepStats& stats,
    const ProgressCallback& progress, const RunCells& run_cells) {
  stats = SweepStats{};
  stats.tasks = sweep.size();
  if (sweep.empty()) return {};

  // Trajectory sharing stays in-process only — a leader's recorded power
  // signal cannot cross the wire — but identical cells never run twice.
  const CellGroups groups =
      group_cells(sweep, SweepRunner::prefix_sharing_default());
  std::vector<JobSpec> uniques;
  uniques.reserve(groups.unique_indices.size());
  for (const std::size_t i : groups.unique_indices) {
    uniques.push_back(sweep[i]);
  }

  // Progress counts against the caller-visible total; duplicates settle
  // after the run.
  ProgressCallback rescaled;
  if (progress) {
    rescaled = [&progress, total = sweep.size()](const SweepProgress& inner) {
      SweepProgress p = inner;
      p.total = total;
      p.eta_seconds = p.elapsed_seconds / static_cast<double>(p.done) *
                      static_cast<double>(total - p.done);
      progress(p);
    };
  }
  const std::vector<sim::SimResult> unique_results =
      run_cells(uniques, rescaled);

  const auto settled = EndpointClock::now();
  std::vector<sim::SimResult> results;
  results.reserve(sweep.size());
  std::size_t done = uniques.size();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    results.push_back(unique_results[groups.rep[i]]);
    if (groups.unique_indices[groups.rep[i]] == i || !progress) continue;
    // A duplicate: count it toward progress now that it has a result.
    SweepProgress p;
    p.done = ++done;
    p.total = sweep.size();
    p.elapsed_seconds = stats.wall_seconds + seconds_since(settled);
    progress(p);
  }
  stats.simulated_cells = uniques.size();
  stats.copied_cells = sweep.size() - uniques.size();
  return results;
}

}  // namespace esched::run
