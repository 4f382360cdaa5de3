// Deterministic fault injection for esched-worker processes.
//
// The supervisor's whole robustness story — death detection, timeouts,
// protocol-corruption handling, retry with backoff — is only trustworthy
// if every path is exercised in CI, and CI cannot rely on real crashes or
// flaky sleeps. ESCHED_FAULT makes workers misbehave *on purpose and
// reproducibly*:
//
//   ESCHED_FAULT=crash:0.3,hang:0.1,garbage:0.2,seed:42
//
// Each worker draws one deterministic uniform number per (task_id,
// attempt) pair — not per process — so the same sweep with the same plan
// always injects the same faults on the same cells, regardless of which
// worker a cell lands on, and a retried attempt re-rolls (which is what
// lets a crash-on-first-attempt cell succeed on its second). Task ids
// come from run::CellQueue, the one queue under the proc, tcp and
// coordinator planes: a share group keeps the id its leader got, in
// claim order, on every plane and across retries. Probability bands are
// checked in order crash, hang, garbage.
//
//   crash:<p>    raise SIGKILL mid-task (after reading the job frame) —
//                the "worker killed by SIGKILL" acceptance path
//   hang:<p>     stop responding (sleep forever) until the supervisor's
//                task timeout kills the worker
//   garbage:<p>  complete the task but answer with a CRC-corrupted frame
//   seed:<s>     seed of the deterministic draw (default 0)
//
// The network faults act at the esched-agentd layer (src/net), so every
// DistributedPool failure path is CI-testable without a flaky real
// network. They share the same per-(task_id, attempt) draw, so a plan
// mixing worker and network faults injects at most one fault per attempt
// and stays deterministic regardless of which agent a cell lands on:
//
//   netdrop:<p>     close the coordinator connection on receiving the
//                   job — the "agent died mid-sweep" requeue path
//   netslow:<p>     hold every outbound frame of the connection (results
//                   *and* heartbeat pongs) for netslow_seconds — the
//                   task-timeout and missed-heartbeat paths
//   netgarbage:<p>  answer the task with a CRC-corrupted frame — the
//                   protocol-corruption path over TCP
//   netslow_seconds:<s>  hold duration for netslow (default 2.0)
//
// The disk faults act at the esched-coordinator's journal layer
// (svc/journal.hpp), so durable-result recovery is testable with the
// same determinism as the process and network faults:
//
//   diskfull:<p>  the journal append for this (task, attempt) fails
//                 entirely (no bytes reach the file) — the "disk full"
//                 path; the coordinator keeps the result in memory and
//                 keeps serving, it just cannot replay the cell later
//   disktorn:<p>  the journal writes a *partial* record for this
//                 (task, attempt) and then fail-stops — the "crash
//                 mid-append" path; replay must truncate the torn tail
//                 and recover every record before it
//
// A process only acts on the faults of its layer: esched-worker ignores
// net*/disk* decisions (the attempt runs clean), esched-agentd ignores
// crash/hang/garbage (its workers, which inherit ESCHED_FAULT, act on
// those) and disk*, and the coordinator's journal acts only on disk*.
// Probability bands are checked in order crash, hang, garbage, netdrop,
// netslow, netgarbage, diskfull, disktorn.
#pragma once

#include <cstdint>
#include <string>

namespace esched::run {

/// Parsed ESCHED_FAULT plan. Default-constructed = no faults.
struct FaultPlan {
  double crash = 0.0;
  double hang = 0.0;
  double garbage = 0.0;
  double net_drop = 0.0;
  double net_slow = 0.0;
  double net_garbage = 0.0;
  double net_slow_seconds = 2.0;
  double disk_full = 0.0;
  double disk_torn = 0.0;
  std::uint64_t seed = 0;

  bool any() const {
    return crash > 0.0 || hang > 0.0 || garbage > 0.0 || net_drop > 0.0 ||
           net_slow > 0.0 || net_garbage > 0.0 || disk_full > 0.0 ||
           disk_torn > 0.0;
  }

  enum class Action {
    kNone,
    kCrash,
    kHang,
    kGarbage,
    kNetDrop,
    kNetSlow,
    kNetGarbage,
    kDiskFull,
    kDiskTorn,
  };

  /// The (deterministic) fault for one task attempt.
  Action decide(std::uint32_t task_id, std::uint32_t attempt) const;

  /// Parse "crash:<p>,hang:<p>,garbage:<p>,seed:<s>" (any subset, any
  /// order). Throws esched::Error naming the offending token on malformed
  /// input or probabilities outside [0, 1].
  static FaultPlan parse(const std::string& text);

  /// Plan from the ESCHED_FAULT environment variable (empty/unset = no
  /// faults). Throws like parse() — a worker with a typo'd plan must die
  /// loudly, not silently run fault-free.
  static FaultPlan from_env();
};

}  // namespace esched::run
