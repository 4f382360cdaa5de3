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

/// Trajectory-sharing key (group_key of a single-site cell). Two spec
/// cells with equal share_key provably produce identical scheduling
/// trajectories — same trace, same policy, same behaviour-affecting
/// config, and a tariff with the same *period-boundary structure* (the
/// scheduler only ever sees PricePeriod and next_price_change, never
/// prices; see core/policy.hpp) — and can therefore differ only in
/// metering. A share group simulates one leader and re-bills the rest
/// from the leader's recorded power signal (sim::rebill). Throws the
/// esched::Error of power::make_pricing_by_name for a tariff model it
/// does not know, so such a cell can never share a sibling's result.
std::string share_key(const JobSpec& spec);

/// Full-identity key: cells with equal cell_key produce bit-identical
/// SimResults (share_key plus the tariff's actual price levels), so one
/// result serves them all. Throws like share_key.
std::string cell_key(const JobSpec& spec);

/// Dispatch-grouping key: cells with equal group_key run as one share
/// group, so one task. A single-site cell's is its share_key. A meta
/// cell's is the trace, cfg and sched segments of its share_key plus
/// `|meta:<spec_key>` — every center of one scenario, whatever its
/// index, `pricing` or `policy` (execution reads each center's own from
/// the MetaSpec). Throws like share_key.
std::string group_key(const JobSpec& spec);

/// Whether a share group led by `leader` re-bills its other members from
/// the leader's trajectory (a single-site group) instead of simulating
/// each in full (a scenario group: one center per member). The one rule
/// behind every plane's simulated/rebilled split.
bool rebills_members(const JobSpec& leader);

/// One share group of a sweep: the cells one task produces. Indices are
/// sweep positions, ascending within each list.
struct ShareGroup {
  /// The cells the group's task produces. members[0] is the leader,
  /// simulated in full. The rest have its group_key and a distinct
  /// cell_key: in a single-site group they re-bill its power signal
  /// under their own tariff; in a scenario group each simulates its own
  /// center over the one routing pass the group shares.
  std::vector<std::size_t> members;
  /// A cell whose cell_key equals a member's copies that member's result.
  struct Copy {
    std::size_t cell = 0;
    std::size_t member = 0;  ///< position in `members`
  };
  std::vector<Copy> copies;
};

/// The sharing plan of an in-process sweep (SweepRunner); run::CellQueue
/// forms the same groups on the fleet planes. Rules, in sweep order:
///  * a cell with an earlier cell's cell_key copies that cell;
///  * otherwise a cell with an earlier group's group_key joins that
///    group as a member;
///  * a null entry — a cell the caller cannot share, e.g. one without
///    a spec — and a cell with a tracer or facility model (which the
///    keys cannot see) is a group of its own;
///  * with `enabled` false every cell is a group of its own;
///  * a scenario group holds at most wire::kMaxTaskMembers members, as
///    on every plane: each member is a full simulation, and one task
///    runs on one worker. The next sibling of a full group leads a new
///    one (copies are not capped). In-process results need no frame, so
///    a price-only group has no cap here; the fleet planes cap it at
///    wire::kMaxTaskMembers, because a task's reply carries every
///    member's result in one frame.
/// Groups are ordered by leader, and a leader precedes its members and
/// copies in the sweep. Throws like share_key.
std::vector<ShareGroup> plan_groups(const std::vector<const JobSpec*>& specs,
                                    bool enabled);

/// What one member of a share group produced.
struct MemberOutcome {
  sim::SimResult result;
  /// Why this member has no result; empty when it has one.
  std::string error;
  /// Time spent on this member: its simulation, or its re-billing.
  double seconds = 0.0;

  bool ok() const { return error.empty(); }
};

/// The trace one esched-worker built last, kept for the sweep that asked
/// for it. A task names its sweep by a *scope* (run::CellQueue draws one
/// per busy period of the queue, so per pool run() and per closed-loop
/// query); the cache answers only a task of the scope it was filled
/// under, so a worker that outlives a sweep (an agentd's) never serves
/// the next sweep from the last one's build. It keeps one trace, keyed by
/// the `trace:` segment of share_key: every grid emits its cells grouped
/// by trace, so a worker's next task in a sweep wants the trace it built
/// last (interleaved traces would only cost rebuilds). A hit is byte-identical to a build, because
/// build_trace is deterministic in its spec — so a scope collision can
/// only cost the memo, never a result. Not thread-safe: one cache per
/// worker.
class TraceCache {
 public:
  /// The trace `spec` names: the kept one when `scope` and `spec` match
  /// it, else a fresh build_trace that replaces it. Counts
  /// run.trace_builds per build and run.trace_cache_hits per hit. Throws
  /// what build_trace throws, and keeps nothing then. The returned trace
  /// outlives its replacement.
  std::shared_ptr<const trace::Trace> get(std::uint64_t scope,
                                          const TraceSpec& spec);

 private:
  std::uint64_t scope_ = 0;
  std::string key_;  ///< the `trace:` segment of share_key
  std::shared_ptr<const trace::Trace> trace_;
};

/// Simulate one share group's trajectory once, under tariffs[0], and
/// bill it under every tariff: outcome 0 is the simulated result, each
/// other outcome a copy re-billed (sim::rebill) from the recorded power
/// signal — bit-identical to simulating it (results_identical). Every
/// tariff must be non-null; throws whatever the simulation throws.
std::vector<MemberOutcome> execute_group(
    const trace::Trace& trace, core::SchedulingPolicy& policy,
    const sim::SimConfig& config,
    const std::vector<const power::PricingModel*>& tariffs);

/// Rebuild one share group (a ShareGroup's members, leader first) from
/// its specs and produce every member — a worker process's entire job.
/// The trace comes from `traces` under `scope` (a hit when the cache
/// holds it for that scope); esched-worker passes its one cache and the task's scope,
/// anyone else a local cache. Never throws: a member whose tariff cannot
/// be built fails alone (the first member with a valid tariff drives the
/// simulation), and a failure to build or simulate the shared trajectory
/// fails every member with the same message. A scenario group hands the
/// one global trace to meta::simulate_centers.
std::vector<MemberOutcome> execute_group(const std::vector<JobSpec>& members,
                                         std::uint64_t scope,
                                         TraceCache& traces);

}  // namespace esched::run
