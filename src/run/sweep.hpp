// The parallel experiment runner: fan a grid of independent trace-driven
// simulations (policy x trace x tariff x config — the shape of every
// table/figure sweep in bench/) across worker threads that claim its
// share groups, in plan order, from one cursor.
//
// Ownership rules (the reason the API looks the way it does):
//  * Traces and tariffs are immutable during a run and *shared read-only*
//    across tasks (`shared_ptr<const ...>`); nothing in sim/ mutates them.
//  * Policies are stateful (scratch workspaces, per-run caches), so each
//    task constructs its own instance from `make_policy` — no mutable
//    state is ever shared between workers.
//
// Determinism: run() returns results in **submission order** regardless
// of completion order, and sim::simulate is itself deterministic, so a
// sweep executed with 1 thread and with N threads produces bit-identical
// result vectors (sweep_runner_test asserts this; the TSan build of that
// test guards the threading).
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "power/pricing.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace esched::obs {
class Tracer;
}  // namespace esched::obs

namespace esched::run {

struct JobSpec;     // run/spec.hpp
struct ShareGroup;  // run/spec.hpp

/// Constructs a fresh policy instance for one task.
using PolicyFactory =
    std::function<std::unique_ptr<core::SchedulingPolicy>()>;

/// One cell of a sweep: everything sim::simulate needs, plus a label for
/// reports. `trace` and `pricing` are shared read-only and must be
/// non-null; `make_policy` is invoked once, on the worker thread.
///
/// `spec` is the optional declarative twin of the cell (run/spec.hpp):
/// when every cell of a sweep carries one, bench::run_sweep can hand the
/// sweep to the multi-process SubprocessPool instead of the in-process
/// runner. The pointer members stay authoritative in-process; the spec is
/// only consulted to rebuild the cell across a process boundary.
struct SimJob {
  std::shared_ptr<const trace::Trace> trace;
  std::shared_ptr<const power::PricingModel> pricing;
  PolicyFactory make_policy;
  sim::SimConfig config;
  std::string label;
  std::shared_ptr<const JobSpec> spec;
};

/// One remote agent's health as the fleet coordinator last saw it
/// (net/distributed.hpp, svc/coordinator.hpp). The state machine is
/// driven by kPing/kPong: "alive" = connected with every ping answered,
/// "suspect" = connected but at least one ping unanswered, "dead" =
/// abandoned (connect budget spent or permanent rejection),
/// "connecting" = between connections (backoff/connect/handshake).
struct AgentLiveness {
  std::string addr;   ///< host:port as configured
  std::string state;  ///< "alive" | "suspect" | "dead" | "connecting"
  /// Seconds since the last kPong (or handshake, if no pong yet) when
  /// the stats were captured; negative when the agent never connected.
  double last_heartbeat_age_seconds = -1.0;
  std::string last_error;  ///< most recent failure ("" when none)
};

/// Counters from the last run() of SweepRunner or of a pool
/// (bench/suite reads the sharing breakdown and the busy fractions).
struct SweepStats {
  std::size_t tasks = 0;          ///< cells executed
  std::size_t threads = 0;        ///< workers actually used
  /// Prefix-sharing breakdown (tasks == simulated + copied + rebilled):
  /// cells simulated in full, cells copied from an identical cell, and
  /// cells re-billed from a trajectory-sharing leader's power signal.
  std::size_t simulated_cells = 0;
  std::size_t copied_cells = 0;
  std::size_t rebilled_cells = 0;
  double wall_seconds = 0.0;      ///< end-to-end elapsed time
  /// Per-worker sum of task durations, indexed by worker (size ==
  /// `threads`; worker 0 of a SweepRunner is the calling thread).
  std::vector<double> worker_busy_seconds;
  /// Distributed transports only: per-agent health at the end of the run
  /// (empty for in-process/subprocess sweeps). Indexed like the
  /// configured agent list.
  std::vector<AgentLiveness> agent_liveness;

  /// Fill the prefix-sharing breakdown from a plan_groups plan over
  /// `specs` (the planner's input): copies are copied; a group's leader
  /// is simulated, and its other members are rebilled or, in a scenario
  /// group, simulated too (run::rebills_members).
  void count_sharing(const std::vector<ShareGroup>& groups,
                     const std::vector<const JobSpec*>& specs);

  /// Fraction of the wall time worker `i` spent executing tasks — the
  /// load-balance picture of a sweep (0 when wall time is unmeasurable).
  double worker_busy_fraction(std::size_t i) const {
    if (i >= worker_busy_seconds.size() || wall_seconds <= 0.0) return 0.0;
    return worker_busy_seconds[i] / wall_seconds;
  }
};

/// Progress of an in-flight sweep, delivered after each completed task.
struct SweepProgress {
  std::size_t done = 0;           ///< tasks completed so far
  std::size_t total = 0;          ///< tasks submitted
  double elapsed_seconds = 0.0;   ///< since run() started
  /// Naive remaining-time estimate: elapsed / done * (total - done).
  double eta_seconds = 0.0;
};

/// Progress after `done` of `total` tasks of a sweep started at `start`
/// (the ETA stays 0 until a task is done). Every plane reports through it.
SweepProgress sweep_progress(std::size_t done, std::size_t total,
                             std::chrono::steady_clock::time_point start);

/// Invoked after each task completes. Calls are serialized by the runner
/// (so the callback itself needs no locking) but arrive on worker
/// threads — keep it quick; rendering a stderr line is the intended use.
using ProgressCallback = std::function<void(const SweepProgress&)>;

/// Runs SimJob grids on `jobs` workers (0 = default_jobs()). The calling
/// thread is worker 0 and the others are threads started per run(), so a
/// 1-worker runner executes on the calling thread alone — the serial
/// reference the determinism test compares against.
class SweepRunner {
 public:
  explicit SweepRunner(std::size_t jobs = 0);

  /// Worker count used when the constructor gets 0: the ESCHED_JOBS
  /// environment variable if set to a positive integer, else
  /// std::thread::hardware_concurrency() (min 1).
  static std::size_t default_jobs();

  std::size_t jobs() const { return jobs_; }

  /// Execute every cell; results in submission order. Exceptions — from
  /// a task or from the progress callback — never abandon in-flight
  /// work: every submitted task still settles (runs to completion or to
  /// its own exception), and only then is the first exception in
  /// submission order rethrown. A throwing ProgressCallback therefore
  /// cannot deadlock the workers or leak half-finished tasks
  /// (sweep_runner_test pins both contracts).
  std::vector<sim::SimResult> run(const std::vector<SimJob>& sweep);

  /// Counters from the most recent run().
  const SweepStats& last_stats() const { return stats_; }

  /// Optional live progress reporting (see ProgressCallback). Replaces
  /// any previous callback; pass {} to disable.
  void set_progress(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Optional tracer: when open, every task is bracketed by a Chrome
  /// trace span on its worker's track (and simulations inherit it only
  /// if their SimConfig carries it too). Non-owning; must outlive run().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Warm-up prefix sharing (on by default; ESCHED_PREFIX_SHARE=off
  /// disables it process-wide, for differential testing). Cells carrying
  /// a JobSpec are grouped by run::plan_groups — cells in one group have
  /// provably identical scheduling trajectories — and one task per group
  /// runs run::execute_group: the leader simulates while recording its
  /// power signal, price-level variants re-bill the signal under their
  /// own tariff (sim::rebill), and identical cells (equal cell_key) copy
  /// a member's result. A multi-center scenario's centers are one group
  /// too: meta::simulate_centers routes the SimJob's trace once and
  /// simulates each center. The produced results are bit-identical to
  /// simulating every cell (results_identical; sweep_runner_test and
  /// meta_test pin this differentially against the sharing-off path).
  void set_prefix_sharing(bool on) { prefix_sharing_ = on; }
  bool prefix_sharing() const { return prefix_sharing_; }
  /// The default: true unless ESCHED_PREFIX_SHARE=off.
  static bool prefix_sharing_default();

 private:
  std::size_t jobs_;
  SweepStats stats_;
  ProgressCallback progress_;
  obs::Tracer* tracer_ = nullptr;
  bool prefix_sharing_ = prefix_sharing_default();
};

/// Non-owning shared_ptr view of a caller-owned trace/tariff (the caller
/// must outlive the run). Lets reference-based call sites (bench::
/// run_all_policies) feed the runner without copying.
std::shared_ptr<const trace::Trace> borrow(const trace::Trace& trace);
std::shared_ptr<const power::PricingModel> borrow(
    const power::PricingModel& pricing);

/// Exact (bit-identical) comparison of two simulation results: every
/// record, bill, energy, curve and counter. The determinism contract of
/// both sim::simulate and SweepRunner is stated in terms of this.
bool results_identical(const sim::SimResult& a, const sim::SimResult& b);

}  // namespace esched::run
