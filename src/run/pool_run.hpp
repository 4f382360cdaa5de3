// The pools' result sink, shared by run::SubprocessPool (--isolate=proc)
// and net::DistributedPool (--isolate=tcp): one run of a sweep through a
// run::CellQueue. It queues every cell, and decodes what the queue
// settles into the result vector in sweep order, with progress per cell,
// per-task timing and the sharing split in SweepStats; a failed cell
// throws. A pool supplies only the driver — the execution plane that
// claims tasks and reports their answers and failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "run/cell_queue.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::run {

class PoolRun {
 public:
  /// Queues every cell of `sweep` (throws on a spec without a cell key),
  /// resets `stats` and starts the wall clock. Sharing follows
  /// SweepRunner::prefix_sharing_default(); `stamp_trace` as for
  /// CellQueue. `task_timer` names the obs timer that records every
  /// successful round trip. Every reference must outlive the run.
  PoolRun(const std::vector<JobSpec>& sweep, const RetryPolicy& retry,
          const char* task_timer, SweepStats& stats,
          const ProgressCallback& progress, bool stamp_trace = false);

  /// Claims and ready-times; settle through the calls below.
  CellQueue& queue() { return queue_; }
  /// Every cell has its result.
  bool done() const { return queue_.empty(); }

  /// Size stats.worker_busy_seconds: a worker slot or an agent per lane.
  void set_lanes(std::size_t lanes);

  /// A successful attempt of `task` on `lane` answered `reply` (a
  /// kResult payload) after `seconds`: store every member's result in
  /// each cell that waits on it, record the task's timing, report
  /// progress once per cell and set `label` to the leader's (it names
  /// the task). Returns false — nothing stored — when the reply does not
  /// decode into one outcome per member (the caller treats that as
  /// corruption); throws when a member failed or its result does not
  /// decode.
  bool complete(std::size_t task, std::vector<std::uint8_t> reply,
                double seconds, std::size_t lane, std::string& label);

  /// A transient failure of `task`'s attempt: requeue its cells; throws
  /// when one of them has spent its attempt budget.
  void fail_attempt(std::size_t task, const std::string& reason,
                    EndpointClock::time_point now);
  /// A deterministic failure (a kError answer) of `task`: throws, naming
  /// the cell.
  [[noreturn]] void fail_task(std::size_t task, const std::string& message);

  /// Stop the wall clock, fill the per-task stats and hand the results
  /// back in sweep order.
  std::vector<sim::SimResult> finish();

 private:
  const char* task_timer_;
  SweepStats& stats_;
  const ProgressCallback& progress_;
  CellQueue queue_;
  std::vector<sim::SimResult> results_;
  std::vector<double> task_seconds_;
  std::size_t cells_done_ = 0;
  EndpointClock::time_point wall_start_;
};

}  // namespace esched::run
