// Multi-process sweep execution: a pool of esched-worker subprocesses
// (run::WorkerSlots) driven over pipes by the one pool driver,
// run::PoolRun.
//
// Why processes when run/sweep.hpp already has threads: isolation. A
// worker that segfaults, leaks until the OOM killer arrives, or wedges in
// a pathological cell takes down *one task attempt*, not the whole sweep.
// Worker death, protocol corruption and hangs (the per-task timeout,
// SubprocessPoolConfig::task_timeout_seconds) are detected by
// run::WorkerSlots (run/worker_slots.hpp) and cost one attempt. Retries
// (run::CellQueue) use capped exponential backoff and a per-cell attempt
// budget; exhausting it raises esched::Error naming the cell and every
// failed attempt. A kError frame (deterministic failure: bad spec, invalid
// trace) fails fast instead — retrying can only fail the same way again.
//
// Determinism: a task is a share group (at most wire::kMaxTaskMembers
// members, as run::plan_groups groups them) — workers
// rebuild its cells from their declarative JobSpecs (run/spec.hpp),
// simulate the trajectory once and re-bill the price variants
// (run::execute_group); every builder is deterministic in the spec, and
// results are returned in submission order — so a multi-process sweep is
// bit-identical (results_identical) to the in-process 1-thread reference,
// including under injected faults (run/fault.hpp), because a retried
// attempt reruns the same deterministic simulation.
//
// The driver is single-threaded: one poll() loop multiplexes every
// worker pipe, timeout deadline and — while a worker slot is idle — retry
// ready-time (run/pool_run.hpp). No locks, no signal handlers (SIGPIPE is
// ignored for the duration of run()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "run/pool_run.hpp"
#include "run/spec.hpp"
#include "sim/result.hpp"

namespace esched::run {

/// Pool knobs. The defaults match the bench CLI defaults
/// (bench/common.cpp) so drivers and tests agree on behaviour.
struct SubprocessPoolConfig {
  /// Worker process count; 0 = SweepRunner::default_jobs() (ESCHED_JOBS
  /// or hardware concurrency), capped at the distinct cell count.
  std::size_t workers = 0;
  /// Per-task wall-clock timeout in seconds; expiry SIGKILLs the worker
  /// and requeues the task. 0 disables the timeout.
  double task_timeout_seconds = 0.0;
  /// Attempt budget per cell (first run + retries). Must be >= 1.
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k (1-based) is
  /// min(backoff_max_seconds, backoff_initial_seconds * 2^(k-1)).
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  /// esched-worker binary; empty = find_worker().
  std::string worker_path;
};

/// The multi-process twin of SweepRunner. One instance may run() multiple
/// sweeps; workers are spawned on first dispatch and reaped before run
/// returns. Its tracer spans go on per-worker tracks (1000 + slot): worker
/// lifetimes and task round trips. With a telemetry sink, run() exports
/// ESCHED_TELEMETRY=1 to its workers (restored afterwards) and ingests
/// every kTelemetry frame they send under the label "worker.<slot>"
/// (clock offset 0 — same machine, same steady clock).
class SubprocessPool : public PoolBase {
 public:
  explicit SubprocessPool(SubprocessPoolConfig config = {});

  /// Locate the esched-worker binary: the ESCHED_WORKER environment
  /// variable if set, else next to this executable, else one directory
  /// up (the build-tree layout). Returns "" when none is executable.
  static std::string find_worker();

  /// True when multi-process execution can work here: find_worker()
  /// succeeds (fork/pipe are assumed on any platform this builds on).
  static bool available();

  /// Execute every spec; results in submission order, bit-identical to
  /// the in-process reference. Throws esched::Error when a cell
  /// exhausts its attempt budget (naming the cell and each failure),
  /// when a worker reports a deterministic kError, or when the worker
  /// binary cannot be spawned. All workers are reaped before any throw.
  std::vector<sim::SimResult> run(const std::vector<JobSpec>& sweep);

 private:
  SubprocessPoolConfig config_;
};

}  // namespace esched::run
