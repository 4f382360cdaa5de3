// Declarative sweep-cell specifications.
//
// The in-process SweepRunner hands tasks around as pointers and closures
// (run/sweep.hpp) — fine inside one address space, useless across a
// process boundary. A JobSpec is the declarative twin of a SimJob: the
// trace is named (workload generator + months + seed, or an SWF path),
// the tariff and policy are named with their parameters, and the
// SimConfig travels by value. Everything a spec references is
// *constructible by name* in its home layer (trace::make_workload_by_name,
// power::make_pricing_by_name, core::make_policy_by_name), and every
// constructor involved is deterministic in the spec's fields — which is
// what makes the multi-process sweep (run/proc.hpp) bit-identical to the
// in-process one: a worker that rebuilds the cell from the spec reproduces
// the parent's inputs exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "power/pricing.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace esched::meta {
struct MetaSpec;  // meta/spec.hpp
}  // namespace esched::meta

namespace esched::run {

/// How to (re)construct a workload trace, mirroring the bench loader's
/// semantics (bench::load_workload delegates to build_trace, so the two
/// can never drift apart).
struct TraceSpec {
  /// "sdsc-blue" | "anl-bgp" | "mira" (synthetic generators), or "swf".
  std::string source = "sdsc-blue";
  /// Trace file path when source == "swf".
  std::string swf_path;
  /// Trace length in 30-day months (synthetic sources).
  std::uint64_t months = 5;
  /// Generator seed; 0 selects the workload's canonical seed.
  std::uint64_t seed = 0;
  /// Power-profile max/min ratio used when profiles are (re)assigned.
  double power_ratio = 3.0;
  /// Rescale even when the trace carries real profiles (the explicit
  /// --power-ratio semantics); otherwise real profiles are kept.
  bool force_power_ratio = false;
  /// Seed for synthetic profile assignment; 0 selects the canonical one.
  std::uint64_t power_seed = 0;

  bool operator==(const TraceSpec&) const = default;
};

/// How to (re)construct a tariff (power::make_pricing_by_name).
struct PricingSpec {
  std::string model = "paper";  ///< "paper" | "onoff" | "flat"
  Money off_peak_price = 0.03;
  double ratio = 3.0;
  /// UTC offset of the tariff's daily windows in minutes (local time =
  /// simulation time + offset). 0 — the default, and the only value any
  /// single-site cell ever used — leaves every existing key and result
  /// byte-identical; multi-center sweeps phase-shift their tariffs with
  /// it. Must stay within ±24 h.
  std::int64_t tz_offset_min = 0;

  bool operator==(const PricingSpec&) const = default;
};

/// How to (re)construct a policy (core::make_policy_by_name).
struct PolicySpec {
  std::string name = "fcfs";

  bool operator==(const PolicySpec&) const = default;
};

/// One fully declarative sweep cell — what the wire codec (run/wire.hpp)
/// ships to an esched-worker process. `config.tracer` does not cross the
/// wire (tracing never changes results); a non-null
/// `config.facility_model` makes the spec non-serializable (the wire
/// codec rejects it), so facility sweeps stay in-process.
struct JobSpec {
  TraceSpec trace;
  PricingSpec pricing;
  PolicySpec policy;
  sim::SimConfig config;
  std::string label;

  /// Observability-only span context, set by a coordinator when fleet
  /// telemetry is on (0 = unset). Crosses the wire so a worker can tag
  /// its simulate span with the dispatch that caused it, letting the
  /// coordinator stitch one cell's lifecycle into a single flow across
  /// processes. Deliberately excluded from share_key/cell_key — trace
  /// context can never affect dedup or results.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  /// Multi-center cell (src/meta): when set, this cell simulates center
  /// `meta_center` of the N-site metascheduling scenario `meta`
  /// describes, instead of the single-site cell above. `trace` still
  /// names the *global* workload (the metascheduler routes its jobs);
  /// `pricing`/`policy` should mirror the center's own (they are what
  /// the keys render for the price levels). Shared immutable — the N
  /// per-center cells of one scenario hold one MetaSpec.
  std::shared_ptr<const meta::MetaSpec> meta;
  std::uint32_t meta_center = 0;
};

/// Build the trace a spec names, including its power-profile handling:
/// profiles are assigned (synthetic draw) when the trace carries none,
/// kept when it does, and rescaled when `force_power_ratio` asks for it.
/// Deterministic in the spec.
trace::Trace build_trace(const TraceSpec& spec);

/// Build the tariff a spec names.
std::unique_ptr<power::PricingModel> build_pricing(const PricingSpec& spec);

/// Build the policy a spec names (fresh instance; policies are stateful).
std::unique_ptr<core::SchedulingPolicy> build_policy(const PolicySpec& spec);

/// Rebuild everything a spec names and run the simulation — the worker
/// process's entire job. The returned result is bit-identical to running
/// the same cell in-process (results_identical), because every builder is
/// deterministic in the spec.
sim::SimResult execute_job_spec(const JobSpec& spec);

/// Trajectory-sharing key (the key the sweep runners group by). Two spec cells with equal share_key provably
/// produce identical scheduling trajectories — same trace, same policy,
/// same behaviour-affecting config, and a tariff with the same
/// *period-boundary structure* (the scheduler only ever sees
/// PricePeriod and next_price_change, never prices; see
/// core/policy.hpp) — and can therefore differ only in metering. The
/// in-process runner simulates one leader per group and re-bills the
/// rest from the leader's recorded power signal (sim::rebill).
std::string share_key(const JobSpec& spec);

/// Full-identity key: cells with equal cell_key produce bit-identical
/// SimResults (share_key plus the tariff's actual price levels). The
/// proc/tcp pools dispatch one representative per distinct cell_key and
/// copy its result into the duplicates.
std::string cell_key(const JobSpec& spec);

/// Identical-cell grouping of a spec sweep (by cell_key) for the
/// multi-process pools, which can exploit full identity but not
/// trajectory sharing (a recorded power signal cannot cross the wire).
struct CellGroups {
  /// For each sweep index, the position in `unique_indices` of the
  /// representative whose result it shares (its own position when it is
  /// the representative).
  std::vector<std::size_t> rep;
  /// Sweep indices of the representatives, ascending.
  std::vector<std::size_t> unique_indices;
};

/// Group a sweep by cell_key. When `enabled` is false — or a cell
/// carries a facility model or tracer, which cell_key cannot see —
/// the affected cells are each their own representative. Safe to copy
/// across a group because equal cell_key implies bit-identical results.
CellGroups group_cells(const std::vector<JobSpec>& sweep, bool enabled);

}  // namespace esched::run
