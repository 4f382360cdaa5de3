#include "meta/metascheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "meta/router.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace esched::meta {

namespace {

/// Per-center tracer tracks sit above the supervisor ranges used by
/// run/proc (worker lifetimes) and net/distributed (agent sessions), so
/// a traced multi-center sweep shows one row per center.
constexpr std::uint32_t kCenterTrackBase = 9100;

}  // namespace

RoutingPlan route_jobs(const trace::Trace& global, const MetaSpec& spec) {
  validate(spec);
  const auto n = static_cast<std::uint32_t>(spec.centers.size());

  std::vector<std::unique_ptr<power::PricingModel>> owned;
  owned.reserve(n);
  RoutingContext ctx;
  ctx.spec = &spec;
  ctx.pricing.reserve(n);
  ctx.nodes.reserve(n);
  for (const CenterSpec& c : spec.centers) {
    owned.push_back(run::build_pricing(c.pricing));
    ctx.pricing.push_back(owned.back().get());
    ctx.nodes.push_back(c.nodes != 0 ? c.nodes : global.system_nodes());
  }
  ctx.backlog_node_seconds.assign(n, 0.0);
  const std::unique_ptr<Router> router = make_router_by_name(spec.router);

  RoutingPlan plan;
  plan.home.reserve(global.size());
  plan.center.reserve(global.size());
  plan.jobs_per_center.assign(n, 0);

  // Smooth weighted round-robin credits for home assignment: every
  // arrival tops each fitting center up by its share, the highest
  // credit wins (ties -> lowest index) and pays the round's total back.
  // Proportions converge to trace_share without any RNG.
  std::vector<double> credit(n, 0.0);
  std::vector<char> eligible(n, 0);
  TimeSec last_arrival = global.empty() ? 0 : global.first_submit();

  for (const trace::Job& job : global.jobs()) {
    // Drain the backlog estimates for the time since the last arrival
    // (each center completes ~nodes node-seconds per second).
    if (job.submit > last_arrival) {
      const auto dt = static_cast<double>(job.submit - last_arrival);
      for (std::uint32_t c = 0; c < n; ++c) {
        ctx.backlog_node_seconds[c] = std::max(
            0.0, ctx.backlog_node_seconds[c] -
                     dt * static_cast<double>(ctx.nodes[c]));
      }
      last_arrival = job.submit;
    }

    double round_total = 0.0;
    bool any = false;
    for (std::uint32_t c = 0; c < n; ++c) {
      eligible[c] = job.nodes <= ctx.nodes[c] ? 1 : 0;
      if (eligible[c] != 0) {
        credit[c] += spec.centers[c].trace_share;
        round_total += spec.centers[c].trace_share;
        any = true;
      }
    }
    if (!any) {
      throw Error("meta: job " + std::to_string(job.id) + " needs " +
                  std::to_string(job.nodes) +
                  " nodes but no center is that large (largest: " +
                  std::to_string(
                      *std::max_element(ctx.nodes.begin(), ctx.nodes.end())) +
                  ")");
    }
    std::uint32_t home = n;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (eligible[c] != 0 && (home == n || credit[c] > credit[home])) {
        home = c;
      }
    }
    credit[home] -= round_total;

    RouteQuery query;
    query.job = &job;
    query.home = home;
    query.now = job.submit;
    query.eligible = &eligible;
    const std::uint32_t dest = router->route(query, ctx);
    ESCHED_REQUIRE(dest < n && eligible[dest] != 0,
                   "meta: router returned an ineligible center");

    plan.home.push_back(home);
    plan.center.push_back(dest);
    if (dest != home) ++plan.moved;
    ++plan.jobs_per_center[dest];
    ctx.backlog_node_seconds[dest] += static_cast<double>(job.nodes) *
                                      static_cast<double>(job.walltime);
  }
  return plan;
}

trace::Trace build_center_trace(const trace::Trace& global,
                                const MetaSpec& spec,
                                const RoutingPlan& plan,
                                std::uint32_t center) {
  validate_center(spec, center);
  ESCHED_REQUIRE(plan.center.size() == global.size(),
                 "meta: routing plan does not match the trace");
  const CenterSpec& c = spec.centers[center];
  trace::Trace out(global.name() + "@" + c.name,
                   c.nodes != 0 ? c.nodes : global.system_nodes());
  for (std::size_t i = 0; i < global.size(); ++i) {
    if (plan.center[i] != center) continue;
    trace::Job job = global[i];
    if (plan.center[i] != plan.home[i]) job.submit += spec.move_penalty;
    out.add_job(job);  // move-penalty shifts insert a job out of order
  }
  return out;
}

std::vector<run::MemberOutcome> simulate_centers(
    const trace::Trace& global, const std::vector<const run::JobSpec*>& members,
    const sim::SimConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<run::MemberOutcome> out(members.size());
  if (members.empty()) return out;
  const MetaSpec& meta = *members.front()->meta;
  const auto route_begin = Clock::now();
  RoutingPlan plan;
  try {
    plan = route_jobs(global, meta);
  } catch (const std::exception& e) {
    for (run::MemberOutcome& o : out) o.error = e.what();
    return out;
  }
  const double route_seconds = seconds_since(route_begin);
  const bool counters = obs::counters_enabled();
  if (counters) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("meta.route_plans").add(1);
    reg.counter("meta.route.jobs").add(global.size());
    reg.counter("meta.route.moved").add(plan.moved);
  }

  // A facility model never reaches a meta cell (the wire codec rejects
  // it and bench meta cells are built without one); the tracer may stay
  // — tracing never changes results, and per-center spans are the point.
  sim::SimConfig governed = config;
  governed.facility_model = nullptr;
  for (std::size_t k = 0; k < members.size(); ++k) {
    const run::JobSpec& spec = *members[k];
    const auto begin = Clock::now();
    try {
      validate_center(meta, spec.meta_center);
      const CenterSpec& center = meta.centers[spec.meta_center];
      if (counters) {
        obs::Registry& reg = obs::Registry::global();
        reg.counter("meta.cells").add(1);
        reg.counter("meta.center." + center.name + ".jobs")
            .add(plan.jobs_per_center[spec.meta_center]);
      }
      const std::unique_ptr<power::PricingModel> pricing =
          run::build_pricing(center.pricing);
      const std::unique_ptr<core::SchedulingPolicy> policy =
          run::build_policy(center.policy);
      if (meta.centers.size() == 1 && center.nodes == 0) {
        // Single-center identity: nothing can move and the machine size
        // is inherited, so simulate the global trace itself —
        // bit-identical (trace name included) to the equivalent plain
        // single-site cell.
        out[k].result = sim::simulate(global, *pricing, *policy, governed);
      } else {
        const trace::Trace local =
            build_center_trace(global, meta, plan, spec.meta_center);
        out[k].result = sim::simulate(local, *pricing, *policy, governed);
      }
      if (governed.tracer != nullptr) {
        governed.tracer->complete_span(
            "center:" + center.name +
                (spec.label.empty() ? "" : " " + spec.label),
            "meta", begin, Clock::now(), kCenterTrackBase + spec.meta_center);
      }
    } catch (const std::exception& e) {
      out[k].error = e.what();
    }
    out[k].seconds = seconds_since(begin);
  }
  // The leader carries the routing pass the whole group shares.
  out.front().seconds += route_seconds;
  return out;
}

}  // namespace esched::meta
