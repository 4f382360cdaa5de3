// The one pool driver under run::SubprocessPool (--isolate=proc) and
// net::DistributedPool (--isolate=tcp), and the two interfaces every
// out-of-process transport speaks.
//
//  * Lanes — a transport as a poll loop drives it: run::WorkerSlots (a
//    lane is a worker slot) and net::AgentFleet (a lane is an agent).
//  * LaneOwner — what a transport reports to: claims for idle lanes,
//    results, transient failures and deterministic kErrors. PoolRun,
//    svc::Coordinator and esched-agentd implement it.
//  * PoolRun — one run of a sweep: it queues every cell in a
//    run::CellQueue, polls the lanes until the queue settles, and decodes
//    what settles into the result vector in sweep order, with progress
//    per cell, per-task timing and spans, and the sharing split in
//    SweepStats. A failed cell throws.
//
// The loop is single-threaded: one poll() multiplexes every lane's fds
// and deadlines and — while a lane is idle — the queue's next retry
// ready-time (wake_time). No locks, no signal handlers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>

#include "run/cell_queue.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::obs {
class FleetAggregator;
class Tracer;
}  // namespace esched::obs

namespace esched::run {

/// What a transport's lanes report to. `ep` is the attempt as dispatched:
/// task, attempt number and dispatch time. Callbacks run on the poll
/// loop's thread and may throw; the exception leaves tick()/on_poll().
class LaneOwner {
 public:
  using Clock = EndpointClock;

  /// Claim the next ready attempt for an idle slot of `lane`; false when
  /// none is dispatchable right now.
  virtual bool claim(std::size_t lane, Clock::time_point now,
                     Dispatch& work) = 0;

  /// `lane` answered `ep` with a kResult payload (CRC already verified).
  /// Return false when it does not decode: the transport then treats the
  /// answer as corruption and fails the attempt.
  virtual bool on_result(std::size_t lane, const Endpoint& ep,
                         std::vector<std::uint8_t> bytes,
                         Clock::time_point now) = 0;

  /// Attempt `ep` failed transiently for `reason` (a death, corruption,
  /// timeout, lost connection or kFail): requeue its cells.
  virtual void on_transient(std::size_t lane, const Endpoint& ep,
                            const std::string& reason,
                            Clock::time_point now) = 0;

  /// `lane` answered `ep` with a kError: a deterministic failure that a
  /// retry would only repeat.
  virtual void on_error(std::size_t lane, const Endpoint& ep,
                        const std::string& message) = 0;

 protected:
  ~LaneOwner() = default;
};

/// A transport as a poll loop drives it: tick() and register_fds() before
/// poll(), on_poll() after it, next_deadline() bounding the wait.
class Lanes {
 public:
  using Clock = EndpointClock;

  /// Drive the transport's clocks (attempt deadlines, and for agents
  /// reconnects and heartbeats), then fill idle lanes from the owner.
  virtual void tick(Clock::time_point now) = 0;
  /// Append the fds to poll; on_poll() must see the same array.
  virtual void register_fds(std::vector<struct pollfd>& fds) = 0;
  virtual void on_poll(const std::vector<struct pollfd>& fds) = 0;
  /// Earliest instant tick() has work to do (time_point::max() if none).
  virtual Clock::time_point next_deadline() const = 0;
  /// Slots that would take a claim right now.
  virtual std::size_t idle_lanes() const = 0;
  /// Lanes reported on: every callback's `lane` is below this.
  virtual std::size_t lane_count() const = 0;
  /// Why no lane can ever run work again; empty while one can.
  virtual std::string unusable_reason(Clock::time_point now) const = 0;

 protected:
  ~Lanes() = default;
};

/// When a loop driving `lanes` from `queue` must wake: the lanes' next
/// deadline, or the queue's next ready-time if sooner — but only while a
/// lane is idle. With every lane busy, only an answer or a lane deadline
/// can make progress, so the loop sleeps in poll().
EndpointClock::time_point wake_time(const Lanes& lanes,
                                    const CellQueue& queue);

/// How a pool names its work in errors, metrics and traces.
struct PoolNames {
  const char* pool;          ///< error prefix ("SubprocessPool")
  const char* task_timer;    ///< obs timer of every successful round trip
  const char* retries;       ///< counter per requeued attempt, or nullptr
  const char* span;          ///< round-trip span prefix ("task:")
  const char* category;      ///< span category
  std::uint32_t track_base;  ///< lane k's spans go on track_base + k
};

/// The public face SubprocessPool and DistributedPool share: the last
/// run's stats and the optional hooks their runs report through.
class PoolBase {
 public:
  /// Counters from the most recent run(). simulated/copied/rebilled cells
  /// count what the tasks produced: one simulation per single-site task
  /// (a share group above wire::kMaxTaskMembers runs as several), one
  /// per member of a scenario task (run::rebills_members);
  /// worker_busy_seconds (one entry per lane) sums pool-observed round
  /// trips (dispatch to answer) of *successful* attempts.
  const SweepStats& last_stats() const { return stats_; }

  /// Same contract as SweepRunner::set_progress. Calls arrive on the
  /// driving thread; a throwing callback settles the pool (workers
  /// reaped, connections closed) before the exception propagates.
  void set_progress(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Optional tracer: every task round trip is a Chrome "X" complete span
  /// on its lane's track, next to the transport's own lifetime spans.
  /// Non-owning; must outlive run().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Optional fleet telemetry sink (each pool says how it ships).
  /// Non-owning; must outlive run(). Telemetry never affects results:
  /// frames are advisory and SimResult bytes are identical with it on or
  /// off.
  void set_telemetry(obs::FleetAggregator* fleet) { fleet_ = fleet; }

 protected:
  ~PoolBase() = default;

  SweepStats stats_;
  ProgressCallback progress_;
  obs::Tracer* tracer_ = nullptr;
  obs::FleetAggregator* fleet_ = nullptr;
};

class PoolRun final : public LaneOwner {
 public:
  /// Queues every cell of `sweep` (throws on a spec without a cell key),
  /// resets `stats` and starts the wall clock. Sharing follows
  /// SweepRunner::prefix_sharing_default(). Every reference and `tracer`
  /// (optional) must outlive the run.
  PoolRun(const std::vector<JobSpec>& sweep, const RetryPolicy& retry,
          const PoolNames& names, SweepStats& stats,
          const ProgressCallback& progress, obs::Tracer* tracer);

  /// Distinct cells queued; a pool needs no more lanes than this.
  std::size_t cells() const { return queue_.queued_cells(); }

  /// Poll `lanes` (which report to this run) until every cell has its
  /// result, then record the wall time and hand the results back in
  /// sweep order. stats.worker_busy_seconds has one entry per lane.
  /// Throws esched::Error when a cell exhausts its attempt budget, on a
  /// kError, and when no lane is usable.
  std::vector<sim::SimResult> run(Lanes& lanes);

  bool claim(std::size_t lane, Clock::time_point now,
             Dispatch& work) override;
  /// Store every member's result in each cell that waits on it, record
  /// the task's timing and span, report progress once per cell. Throws
  /// when a member failed or its result does not decode.
  bool on_result(std::size_t lane, const Endpoint& ep,
                 std::vector<std::uint8_t> bytes,
                 Clock::time_point now) override;
  /// Throws when a cell of the task has spent its attempt budget.
  void on_transient(std::size_t lane, const Endpoint& ep,
                    const std::string& reason, Clock::time_point now) override;
  /// Always throws, naming the cell.
  void on_error(std::size_t lane, const Endpoint& ep,
                const std::string& message) override;

 private:
  const PoolNames& names_;
  SweepStats& stats_;
  const ProgressCallback& progress_;
  obs::Tracer* tracer_;
  CellQueue queue_;
  std::vector<sim::SimResult> results_;
  std::size_t cells_done_ = 0;
  Clock::time_point wall_start_;
};

}  // namespace esched::run
