// The metascheduler front-end: route a global trace across N centers,
// then simulate each center with the unchanged single-site engine.
//
// Execution model (the reason this slots into every existing pool): one
// scenario = N ordinary sweep cells, one per center, and the N cells are
// one share group (run::group_key: the trace, the simulator config and
// the whole MetaSpec, not the center index), dispatched as tasks of at
// most wire::kMaxTaskMembers centers. A task takes the *global* trace
// once (from its worker's run::TraceCache, so a worker builds it once
// per sweep), runs the deterministic routing pass once, then carves and
// simulates each member's center with the center's tariff and policy
// (simulate_centers). Routing is a pure function of (trace, MetaSpec),
// so the tasks of one scenario agree on the assignment without ever
// communicating — which is what keeps multi-center sweeps bit-identical
// across in-process, proc, TCP and coordinator execution, however the
// centers are split into tasks.
//
// Two-phase determinism:
//  1. route_jobs() walks the global trace in submission order. Each job
//     first gets a *home* center by smooth weighted round-robin over
//     CenterSpec::trace_share (restricted to centers the job fits on);
//     the scenario's Router then picks the destination among fitting
//     centers. No center fits -> esched::Error naming the job.
//  2. build_center_trace() materializes one center's sub-trace; a job
//     routed off its home center arrives move_penalty seconds late
//     (data staging), modelled as a submit-time shift.
#pragma once

#include <cstdint>
#include <vector>

#include "meta/spec.hpp"
#include "run/spec.hpp"
#include "sim/result.hpp"
#include "trace/trace.hpp"

namespace esched::meta {

/// The routing pass's full output, indexed like the global trace.
struct RoutingPlan {
  std::vector<std::uint32_t> home;    ///< home center per job
  std::vector<std::uint32_t> center;  ///< destination center per job
  std::uint64_t moved = 0;            ///< jobs routed off-home
  std::vector<std::uint64_t> jobs_per_center;
};

/// Phase 1: deterministic home assignment + routing of every job of the
/// global trace. Throws esched::Error when a job fits on no center or the
/// spec fails validate().
RoutingPlan route_jobs(const trace::Trace& global, const MetaSpec& spec);

/// Phase 2: one center's sub-trace. Named "<global>@<center>", sized to
/// the center's nodes (0 = the global machine size). A moved job arrives
/// `move_penalty` late, so add_job inserts it after the jobs it now
/// trails: the carve costs O(jobs + displaced positions), one pass.
trace::Trace build_center_trace(const trace::Trace& global,
                                const MetaSpec& spec,
                                const RoutingPlan& plan,
                                std::uint32_t center);

/// Produce a scenario group: `members` are centers of one scenario
/// (equal run::group_key, so one MetaSpec) and `global` is the trace
/// their TraceSpec names. Routes `global` once under the leader's
/// MetaSpec, then carves and simulates each member's center under
/// `config` (the spec's own, or the in-process one carrying a tracer)
/// with the center's tariff and policy. One outcome per member, in
/// order. Never throws: a routing failure fails every member with the
/// same message, and a bad center (index out of range) fails only its
/// own member.
///
/// Single-center identity: a 1-center scenario with inherited nodes
/// simulates the global trace *itself* (no rename, no copy), so its
/// SimResult is bit-identical to the equivalent plain JobSpec cell
/// (meta_test pins this with results_identical).
std::vector<run::MemberOutcome> simulate_centers(
    const trace::Trace& global, const std::vector<const run::JobSpec*>& members,
    const sim::SimConfig& config);

}  // namespace esched::meta
