// The plane-independent half of a pool run, shared by run::SubprocessPool
// (--isolate=proc) and net::DistributedPool (--isolate=tcp): the sharing
// plan (run::plan_groups) with one task per share group, the task ledger
// over those tasks, per-task timing, and fanning each reply out to its
// group's cells with progress per cell. A pool supplies only the
// execution plane in the middle.
#pragma once

#include <cstdint>
#include <vector>

#include "run/endpoint.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::run {

/// One run of a pool over a sweep: the share groups as tasks, the
/// TaskLedger over them, the encoded task payloads, the results and
/// per-task timing.
class PoolRun {
 public:
  /// Plans `sweep` into share groups of at most wire::kMaxTaskMembers
  /// members (ESCHED_PREFIX_SHARE=off makes every cell its own task),
  /// encodes every task payload (throws on a bad spec), resets `stats`
  /// with the sharing split and starts the wall clock. `stamp_trace`
  /// gives each member of task k the trace context (1, k + 1), so a
  /// remote simulate span stitches under the task's dispatch span (trace
  /// context never reaches a key or result). `task_timer` names the obs
  /// timer that records every successful round trip. Every reference
  /// must outlive the run.
  PoolRun(const std::vector<JobSpec>& sweep, const RetryPolicy& retry,
          const char* task_timer, SweepStats& stats,
          const ProgressCallback& progress, bool stamp_trace = false);

  /// Task count (distinct share groups).
  std::size_t size() const { return leaders_.size(); }

  /// Size stats.worker_busy_seconds: a worker slot or an agent per lane.
  void set_lanes(std::size_t lanes);

  TaskLedger& ledger() { return ledger_; }
  /// The leader's spec of a task (its label names the task).
  const JobSpec& leader(std::size_t task) const { return leaders_[task]; }

  /// Claim the next ready task and begin its attempt; false when every
  /// pending task is gated on backoff.
  bool claim(EndpointClock::time_point now, Dispatch& work);

  /// A successful attempt of `task` on `lane` answered `reply` (a
  /// kResult payload) after `seconds`: store every member's result and
  /// its copies', complete the task, record its timing and report
  /// progress once per cell. Returns false — nothing stored — when the
  /// reply does not decode into one result per member (the caller treats
  /// that as corruption); throws like TaskLedger::fail_deterministic
  /// when a member's cell failed.
  bool complete(std::size_t task, const std::vector<std::uint8_t>& reply,
                double seconds, std::size_t lane);

  /// Stop the wall clock, fill the per-task stats and hand the results
  /// back in sweep order.
  std::vector<sim::SimResult> finish();

 private:
  const std::vector<JobSpec>& sweep_;
  const char* task_timer_;
  SweepStats& stats_;
  const ProgressCallback& progress_;
  std::vector<ShareGroup> groups_;
  std::vector<JobSpec> leaders_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<sim::SimResult> results_;
  std::vector<double> task_seconds_;
  std::size_t cells_done_ = 0;
  EndpointClock::time_point wall_start_;
  TaskLedger ledger_;
};

}  // namespace esched::run
