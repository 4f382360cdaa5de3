// The trace-driven scheduling simulator — the C++ counterpart of the
// paper's CQSim (§5.1).
//
// Event semantics match a production batch system: submissions and
// completions are asynchronous events; the scheduler runs only at periodic
// ticks (every `tick_interval` seconds — the paper studies 10/20/30 s).
// Nodes freed between ticks therefore wait for the next tick, which is
// precisely the accumulation effect behind the paper's Table 4. For
// efficiency the simulator only *materialises* ticks that can matter: ones
// following a state change (submit/finish) or a price-period flip; a tick
// at which nothing changed is provably a no-op and is never enqueued.
//
// Two entry points:
//  * simulate() — run a whole trace to completion (the common case);
//  * Simulation — the same engine, constructed first so the caller can
//    attach a PowerSignal recorder before finish() runs it.
//
// A Simulation can record the meter's input — the piecewise-constant
// system power signal — into a PowerSignal. rebill() then re-prices that
// signal under a different tariff without re-simulating: scheduling
// trajectories depend on the tariff only through its on/off-peak
// *boundaries* (policies see PricePeriod, never prices — see
// core/policy.hpp), so sweep cells that differ only in price levels share
// one trajectory and differ only in metering. That identity is what the
// sweep runner's prefix sharing exploits.
#pragma once

#include <memory>

#include "core/scheduler.hpp"
#include "power/facility.hpp"
#include "power/pricing.hpp"
#include "power/visibility.hpp"
#include "sim/result.hpp"
#include "trace/trace.hpp"

namespace esched::obs {
class Tracer;
}  // namespace esched::obs

namespace esched::sim {

/// Simulation parameters (paper defaults).
struct SimConfig {
  /// Scheduler invocation period in seconds (paper: 10-30 s, default 10).
  DurationSec tick_interval = 10;
  /// Window size, beyond-window backfilling, starvation guard.
  core::SchedulerConfig scheduler;
  /// Power drawn by each idle node (paper: 0; see the idle-power ablation).
  Watts idle_watts_per_node = 0.0;
  /// Optional facility (PUE/cooling) model: the meter then bills facility
  /// watts instead of raw IT watts (power/facility.hpp). Non-owning; must
  /// outlive the simulation.
  const power::FacilityModel* facility_model = nullptr;
  /// Allocate nodes as contiguous 1-D blocks (Blue Gene-style topology
  /// constraint) instead of the paper's fungible pool. Jobs selected by
  /// the scheduler that cannot be placed contiguously stay queued; see
  /// sim/allocator.hpp and bench/ablation_fragmentation.
  bool contiguous_allocation = false;
  /// Order the wait queue by (queue class, arrival) instead of pure
  /// arrival — the paper's §3 multi-queue setup. Lower Job::queue values
  /// are higher priority; within a class, FCFS order is preserved. Off by
  /// default (the paper's evaluation uses a single queue).
  bool honor_queue_priority = false;
  /// Honor SWF workflow dependencies (Job::preceding/think_time): a
  /// dependent job enters the wait queue only after its predecessor
  /// completes plus the think time. Off by default (the paper replays
  /// jobs independently). Dependencies on jobs that do not appear
  /// earlier in the trace are ignored.
  bool honor_dependencies = false;
  /// Maximum scheduler passes per tick. 0 (default) re-runs the scheduler
  /// until no further job starts, so a fully-dispatched window refills
  /// within the same tick. 1 emulates batch schedulers (and the paper's
  /// CQSim) that make one decision per period: leftover work waits for
  /// the next tick, which is what couples the scheduling frequency to
  /// batch size (the paper's Table 4/5 effect).
  std::size_t max_passes_per_tick = 0;
  /// Record Fig. 12/13-style time-of-day curves (small constant cost).
  bool record_daily_curves = true;
  /// Bins per day for those curves (must divide 86,400).
  std::size_t daily_curve_bins = 96;
  /// Optional decision tracer (obs/tracer.hpp): when non-null and open,
  /// the engine emits one JSONL record per scheduler tick plus Chrome
  /// trace spans for the run's phases. Non-owning; must outlive the
  /// simulation; safe to share across concurrent simulations (the tracer
  /// serializes internally). Null (the default) costs nothing; tracing
  /// never changes the SimResult.
  obs::Tracer* tracer = nullptr;
};

/// The piecewise-constant total-system-power signal a simulation feeds
/// its billing meter: change-point i says "power becomes watts[i] at
/// times[i]". Recorded via Simulation::record_power_signal(), re-priced
/// under another tariff via rebill().
struct PowerSignal {
  std::vector<TimeSec> times;
  std::vector<Watts> watts;
};

/// One simulation run. Construct with the same arguments as simulate(),
/// optionally attach a PowerSignal recorder, then call finish().
class Simulation {
 public:
  /// See simulate() for the argument contract. All references must
  /// outlive the Simulation.
  Simulation(const trace::Trace& trace, const power::PricingModel& pricing,
             core::SchedulingPolicy& policy, const SimConfig& config = {},
             power::PowerVisibility* visibility = nullptr);
  ~Simulation();
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;

  /// Record every meter change-point into `signal` (append-only; caller
  /// owns it and must keep it alive). Pass nullptr to stop recording.
  /// Enable before finish() to capture the whole signal.
  void record_power_signal(PowerSignal* signal);

  /// Process every event and assemble the result. Call once.
  SimResult finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run `policy` over `trace` under `pricing`. The trace must be finalized
/// and valid; every job must carry a power profile if the bill is to be
/// meaningful. Deterministic: same inputs, same SimResult.
///
/// `visibility` (optional) decouples the power profile the *scheduler*
/// sees from the ground truth the *meter* bills: pass a
/// power::ProfileEstimator to model online profile learning, a
/// NoisyVisibility for measurement error, or leave null for the paper's
/// perfect-knowledge assumption. Completions feed back into it.
SimResult simulate(const trace::Trace& trace,
                   const power::PricingModel& pricing,
                   core::SchedulingPolicy& policy,
                   const SimConfig& config = {},
                   power::PowerVisibility* visibility = nullptr);

/// Recompute `result`'s meter-derived fields (bills, energies, daily
/// bills) by replaying `signal` under `pricing`/`facility`. Produces
/// bit-identical values to a full simulation under that tariff whenever
/// the tariff's period boundaries match the one `signal` was recorded
/// under (trajectories, and hence the signal, depend only on boundaries).
void rebill(SimResult& result, const PowerSignal& signal,
            const power::PricingModel& pricing,
            const power::FacilityModel* facility = nullptr);

}  // namespace esched::sim
