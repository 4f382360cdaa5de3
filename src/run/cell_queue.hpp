// The one cell scheduler under every out-of-process plane: proc
// (run::SubprocessPool), tcp (net::DistributedPool) and esched-coordinator
// (svc::Coordinator) claim, group and retry cells through it. A plane
// keeps only its driver — poll loop, transport callbacks, spans; the two
// pools share one, run::PoolRun — and decides what a settled cell means:
// the pools decode it into their results (run/pool_run.hpp), the daemon
// journals, stores and streams it.
//
//  * A cell is one cell_key: adding a duplicate only adds a waiter, and
//    it settles with its first copy.
//  * A claim pops the first ready queued cell and takes along ready
//    queued cells with its group_key, up to wire::kMaxTaskMembers, as
//    run::plan_groups groups them.
//  * Task ids are stable: a cell keeps the id it got the first time it
//    led a task, and ids go out in claim order — so on a fresh sweep
//    task k is plan_groups' group k on every plane, and a retried group
//    is the next attempt (its leader's attempt count) of the same task.
//    Fault plans and flight dumps, keyed on (task, attempt), follow.
//  * Every cell has its own attempt budget under RetryPolicy backoff; a
//    failed attempt requeues each member behind its own gate, and a
//    spent budget or an error outcome fails that member alone.
//  * Every task carries the queue's scope (wire::Task): a fresh random
//    one each time the queue goes from empty to non-empty, so one per
//    pool run() and one per busy period of a coordinator — each
//    closed-loop query gets its own, while sweeps that overlap share
//    one. A worker reuses the trace it built within a scope and for no
//    other (run::TraceCache).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "run/endpoint.hpp"
#include "run/spec.hpp"

namespace esched::run {

/// Who waits on a cell: a sweep ("" for a pool's one sweep) and an index
/// in its grid.
struct CellWaiter {
  std::string sweep;
  std::size_t index = 0;
};

/// A cell that left the queue: produced, or failed for good.
struct SettledCell {
  std::string key;  ///< cell_key
  std::string label;
  std::vector<CellWaiter> waiters;
  std::vector<std::uint8_t> result;  ///< encode_result bytes, verbatim
  std::string error;  ///< why it failed, naming it; empty when produced
  /// Produced by re-billing its task's simulated member rather than by a
  /// simulation of its own (run::rebills_members decides).
  bool rebilled = false;

  bool ok() const { return error.empty(); }
};

class CellQueue {
 public:
  using Clock = EndpointClock;

  /// With `sharing` off every cell is a task of its own.
  CellQueue(RetryPolicy retry, bool sharing);

  /// Wait on the cell of `spec` (whose cell_key is `key`) for `waiter`:
  /// true when the cell is new and queued ready at `now`.
  bool add(const std::string& key, const JobSpec& spec, CellWaiter waiter,
           Clock::time_point now);

  bool empty() const { return cells_.empty(); }
  std::size_t queued_cells() const { return pending_.size(); }
  std::size_t in_flight_cells() const { return cells_.size() - pending_.size(); }

  /// Claim the next task and begin its attempt; work.payload stays valid
  /// until the next claim. False when no queued cell is ready.
  bool claim(Clock::time_point now, Dispatch& work);
  /// Earliest ready-time of a queued cell (time_point::max() if none).
  Clock::time_point next_ready() const;
  /// Members of in-flight `task` (0 when it is not in flight).
  std::size_t task_size(std::size_t task) const;

  /// In-flight `task` answered `reply` (a kResult payload): settle its
  /// members into `out`, leader first, each with its result or failed by
  /// its error outcome. False, changing nothing, when the task is not in
  /// flight or the reply is not one outcome per member.
  bool complete(std::size_t task, std::vector<std::uint8_t> reply,
                std::vector<SettledCell>& out);
  /// A transient failure of `task`'s attempt: requeue its members and
  /// return those whose budget is spent, failed with `sweep cell
  /// "<label>" failed after N attempt(s): [attempt 1: ...]; ...`.
  std::vector<SettledCell> fail_attempt(std::size_t task,
                                        const std::string& reason,
                                        Clock::time_point now);
  /// A deterministic failure (kError) of `task`: every member fails.
  std::vector<SettledCell> fail_task(std::size_t task,
                                     const std::string& message);
  /// Fail every queued and in-flight cell with `message`, as is.
  std::vector<SettledCell> fail_all(const std::string& message);
  /// Drop `sweep`'s waiters; its cells keep running for anyone else.
  void forget(const std::string& sweep);

 private:
  using CellId = std::uint64_t;
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  struct Cell {
    std::string key;
    JobSpec spec;
    std::string group;  ///< group_key; empty with sharing off
    std::uint32_t task = kNoId;  ///< the id it got when it first led
    std::uint32_t attempts = 0;    ///< attempts started
    std::vector<std::string> failures;  ///< one line per failed attempt
    Clock::time_point ready_at{};       ///< backoff gate while queued
    std::vector<CellWaiter> waiters;
  };

  void enqueue(CellId id);
  void dequeue(CellId id);
  SettledCell settle(CellId id, std::string error);
  std::vector<CellId> take_task(std::size_t task);

  RetryPolicy retry_;
  bool sharing_;
  CellId next_cell_ = 0;
  std::uint32_t next_task_ = 0;
  std::map<CellId, Cell> cells_;  ///< queued or in flight, oldest first
  std::unordered_map<std::string, CellId> by_key_;
  std::deque<CellId> pending_;  ///< queued, in claim order
  /// group_key -> its queued cells, in queue order.
  std::unordered_map<std::string, std::vector<CellId>> queued_by_group_;
  std::unordered_map<std::size_t, std::vector<CellId>> tasks_;  ///< in flight
  std::vector<std::uint8_t> payload_;  ///< the last claim's kJob payload
  std::uint64_t scope_ = 0;  ///< drawn when the queue last became busy
};

}  // namespace esched::run
