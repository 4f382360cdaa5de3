// The plane-independent half of a pool run, shared by run::SubprocessPool
// (--isolate=proc) and net::DistributedPool (--isolate=tcp): identical-
// cell dedup, the task ledger over the distinct cells, per-task timing,
// progress against the caller's total, and settling the duplicates. A
// pool supplies only the execution plane in the middle.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "run/endpoint.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::run {

/// One run of a pool over the distinct cells of a sweep: the TaskLedger,
/// the encoded job payloads, the results and per-task timing.
class PoolRun {
 public:
  /// Encodes every payload (throws on a bad spec) and starts the wall
  /// clock. `lanes` sizes stats.worker_busy_seconds (a worker slot or an
  /// agent per lane); `task_timer` names the obs timer that records every
  /// successful round trip. Every reference must outlive the run.
  PoolRun(const std::vector<JobSpec>& cells, const RetryPolicy& retry,
          std::size_t lanes, const char* task_timer, SweepStats& stats,
          const ProgressCallback& progress);

  TaskLedger& ledger() { return ledger_; }
  const JobSpec& cell(std::size_t task) const { return cells_[task]; }

  /// Claim the next ready task and begin its attempt; false when every
  /// pending task is gated on backoff.
  bool claim(EndpointClock::time_point now, Dispatch& work);

  /// A successful attempt on `lane` that took `seconds`: store the result,
  /// complete the task, record its timing and report progress.
  void complete(std::size_t task, sim::SimResult result, double seconds,
                std::size_t lane);

  /// Stop the wall clock, fill the per-task stats and hand the results
  /// back in cell order.
  std::vector<sim::SimResult> finish();

 private:
  const std::vector<JobSpec>& cells_;
  const char* task_timer_;
  SweepStats& stats_;
  const ProgressCallback& progress_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<sim::SimResult> results_;
  std::vector<double> task_seconds_;
  EndpointClock::time_point wall_start_;
  TaskLedger ledger_;
};

/// Runs the distinct cells (mutable: a plane may stamp trace context on
/// its copy) on one plane, reporting to `progress`; results in order.
using RunCells = std::function<std::vector<sim::SimResult>(
    std::vector<JobSpec>& cells, const ProgressCallback& progress)>;

/// The pool-run skeleton: reset `stats`, dedup `sweep` by cell_key
/// (ESCHED_PREFIX_SHARE=off disables it), run the representatives through
/// `run_cells`, then settle every duplicate — its result copied, its
/// progress reported on the same clock as the representatives' — and
/// record the simulated/copied split. Results are in submission order.
std::vector<sim::SimResult> run_deduplicated(
    const std::vector<JobSpec>& sweep, SweepStats& stats,
    const ProgressCallback& progress, const RunCells& run_cells);

}  // namespace esched::run
