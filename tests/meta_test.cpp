// Tests for the multi-center metascheduling layer (src/meta): spec
// validation with name-listing errors, deterministic home assignment and
// routing, the data-movement penalty, the single-center identity against
// a plain single-site cell, cell-key canonicalization, scenario groups
// (one routing pass for up to wire::kMaxTaskMembers centers, identical
// to one center per group) and byte-identity of meta cells across the
// in-process runner and the subprocess pool.
#include "meta/metascheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "meta/router.hpp"
#include "meta/spec.hpp"
#include "obs/registry.hpp"
#include "oracles.hpp"
#include "run/proc.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "run/wire.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace esched::meta {
namespace {

/// A small two-center scenario: equal shares, inherited machine size,
/// tariffs phase-shifted half a day apart (opposite peak windows).
MetaSpec two_center_spec(const std::string& router = "home") {
  MetaSpec spec;
  spec.router = router;
  CenterSpec west;
  west.name = "west";
  CenterSpec east;
  east.name = "east";
  east.pricing.tz_offset_min = 12 * 60;
  spec.centers = {west, east};
  return spec;
}

/// A deterministic synthetic global trace: `jobs` single-node jobs,
/// arriving every `gap` seconds starting at t=0.
trace::Trace uniform_trace(std::size_t jobs, DurationSec gap = 60,
                           NodeCount width = 1) {
  trace::Trace trace("meta-test", 64);
  for (std::size_t i = 0; i < jobs; ++i) {
    trace::Job job;
    job.id = static_cast<JobId>(i + 1);
    job.submit = static_cast<TimeSec>(i) * gap;
    job.nodes = width;
    job.runtime = 120;
    job.walltime = 300;
    job.power_per_node = 40.0;
    trace.add_job(job);
  }
  return trace;
}

run::JobSpec meta_job_spec(const MetaSpec& meta, std::uint32_t center) {
  run::JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  spec.pricing = meta.centers[center].pricing;
  spec.policy = meta.centers[center].policy;
  spec.meta = std::make_shared<const MetaSpec>(meta);
  spec.meta_center = center;
  return spec;
}

TEST(MetaSpecTest, ValidateRejectsMalformedScenarios) {
  MetaSpec empty;
  empty.centers.clear();
  EXPECT_THROW(validate(empty), Error);

  MetaSpec bad_router = two_center_spec("teleport");
  try {
    validate(bad_router);
    FAIL() << "unknown router accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("teleport"), std::string::npos) << what;
    for (const std::string& name : known_router_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }

  MetaSpec dup = two_center_spec();
  dup.centers[1].name = "west";
  EXPECT_THROW(validate(dup), Error);

  MetaSpec unnamed = two_center_spec();
  unnamed.centers[0].name.clear();
  EXPECT_THROW(validate(unnamed), Error);

  MetaSpec bad_share = two_center_spec();
  bad_share.centers[0].trace_share = 0.0;
  EXPECT_THROW(validate(bad_share), Error);

  MetaSpec bad_penalty = two_center_spec();
  bad_penalty.move_penalty = -1;
  EXPECT_THROW(validate(bad_penalty), Error);

  MetaSpec bad_horizon = two_center_spec();
  bad_horizon.route_horizon = 0;
  EXPECT_THROW(validate(bad_horizon), Error);

  MetaSpec bad_policy = two_center_spec();
  bad_policy.centers[1].policy.name = "telepathy";
  try {
    validate(bad_policy);
    FAIL() << "unknown policy accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("telepathy"), std::string::npos) << what;
    EXPECT_NE(what.find("knapsack"), std::string::npos) << what;
  }

  MetaSpec bad_model = two_center_spec();
  bad_model.centers[0].pricing.model = "spot";
  EXPECT_THROW(validate(bad_model), Error);
}

TEST(MetaSpecTest, ValidateCenterChecksTheIndexAndNamesCenters) {
  const MetaSpec spec = two_center_spec();
  EXPECT_NO_THROW(validate_center(spec, 0));
  EXPECT_NO_THROW(validate_center(spec, 1));
  try {
    validate_center(spec, 2);
    FAIL() << "out-of-range center accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("west"), std::string::npos) << what;
    EXPECT_NE(what.find("east"), std::string::npos) << what;
  }
}

TEST(MetaSpecTest, SpecKeyIsExactAndOrderSensitive) {
  const MetaSpec a = two_center_spec();
  MetaSpec b = a;
  EXPECT_EQ(spec_key(a), spec_key(b));
  b.centers[0].pricing.ratio = 3.0000000001;
  EXPECT_NE(spec_key(a), spec_key(b));
  MetaSpec swapped = a;
  std::swap(swapped.centers[0], swapped.centers[1]);
  EXPECT_NE(spec_key(a), spec_key(swapped));
}

TEST(RouterTest, FactoryKnowsEveryNameAndRejectsOthersListingThem) {
  for (const std::string& name : known_router_names()) {
    const std::unique_ptr<Router> router = make_router_by_name(name);
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->name(), name);
  }
  try {
    make_router_by_name("random");
    FAIL() << "unknown router accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("random"), std::string::npos) << what;
    EXPECT_NE(what.find("cheapest-window"), std::string::npos) << what;
  }
}

TEST(RouterTest, WindowAveragePriceWalksTariffSegments) {
  // Paper tariff: $0.03 off-peak until noon, $0.09 after. A 24h window
  // from midnight averages to the midpoint; a window entirely inside one
  // period is flat.
  const power::OnOffPeakPricing tariff(0.03, 3.0);
  EXPECT_DOUBLE_EQ(window_average_price(tariff, 0, kSecondsPerDay), 0.06);
  EXPECT_DOUBLE_EQ(window_average_price(tariff, 0, 6 * kSecondsPerHour),
                   0.03);
  EXPECT_DOUBLE_EQ(
      window_average_price(tariff, 13 * kSecondsPerHour, kSecondsPerHour),
      0.09);
}

TEST(RouteJobsTest, HomeAssignmentConvergesToTraceShares) {
  MetaSpec spec = two_center_spec();
  spec.centers[0].trace_share = 3.0;
  spec.centers[1].trace_share = 1.0;
  const trace::Trace trace = uniform_trace(400);
  const RoutingPlan plan = route_jobs(trace, spec);
  ASSERT_EQ(plan.home.size(), trace.size());
  const auto west =
      std::count(plan.home.begin(), plan.home.end(), 0u);
  EXPECT_EQ(west, 300);  // smooth WRR is exact on a 3:1 split
  EXPECT_EQ(plan.moved, 0u);  // the home router never moves a job
  EXPECT_EQ(plan.jobs_per_center[0] + plan.jobs_per_center[1],
            trace.size());
}

TEST(RouteJobsTest, CapacityGatesBothHomeAndDestination) {
  MetaSpec spec = two_center_spec();
  spec.centers[0].nodes = 4;  // small site
  spec.centers[1].nodes = 64;
  trace::Trace trace("meta-test", 64);
  for (std::size_t i = 0; i < 10; ++i) {
    trace::Job job;
    job.id = static_cast<JobId>(i + 1);
    job.submit = static_cast<TimeSec>(i) * 60;
    job.nodes = 16;  // only fits the big site
    job.runtime = 120;
    job.walltime = 300;
    job.power_per_node = 40.0;
    trace.add_job(job);
  }
  const RoutingPlan plan = route_jobs(trace, spec);
  EXPECT_EQ(plan.jobs_per_center[0], 0u);
  EXPECT_EQ(plan.jobs_per_center[1], 10u);

  // A job too large for every center is a configuration error that names
  // the largest machine.
  MetaSpec tiny = two_center_spec();
  tiny.centers[0].nodes = 4;
  tiny.centers[1].nodes = 8;
  try {
    route_jobs(trace, tiny);
    FAIL() << "unroutable job accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no center"), std::string::npos) << what;
    EXPECT_NE(what.find('8'), std::string::npos) << what;
  }
}

TEST(RouteJobsTest, CheapestNowFollowsThePhaseShiftedTariffs) {
  // West is off-peak [00:00, 12:00); east (shifted +12h) is off-peak
  // [12:00, 24:00). Every job should route to whichever is off-peak at
  // its submission.
  const MetaSpec spec = two_center_spec("cheapest-now");
  const trace::Trace trace = uniform_trace(48, kSecondsPerHour / 2);
  const RoutingPlan plan = route_jobs(trace, spec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool morning = trace[i].submit < 12 * kSecondsPerHour;
    EXPECT_EQ(plan.center[i], morning ? 0u : 1u)
        << "job " << i << " at t=" << trace[i].submit;
  }
  EXPECT_GT(plan.moved, 0u);
}

TEST(RouteJobsTest, MovePenaltyDelaysOffHomeArrivals) {
  MetaSpec spec = two_center_spec("cheapest-now");
  spec.move_penalty = 600;
  const trace::Trace trace = uniform_trace(48, kSecondsPerHour / 2);
  const RoutingPlan plan = route_jobs(trace, spec);
  for (std::uint32_t c = 0; c < 2; ++c) {
    const trace::Trace local = build_center_trace(trace, spec, plan, c);
    // Every moved job arrives exactly move_penalty after its global
    // submission; home jobs are untouched. Match by job id.
    for (const trace::Job& job : local.jobs()) {
      const std::size_t i = static_cast<std::size_t>(job.id - 1);
      ASSERT_EQ(plan.center[i], c);
      const TimeSec expected =
          trace[i].submit + (plan.center[i] != plan.home[i] ? 600 : 0);
      EXPECT_EQ(job.submit, expected) << "job " << job.id;
    }
  }
}

TEST(RouteJobsTest, CarveMatchesFilterShiftStableSort) {
  // A penalty of ten arrival gaps puts every moved job behind the home
  // jobs that follow it, so the carve inserts out of order many times.
  MetaSpec spec = two_center_spec("cheapest-now");
  spec.move_penalty = 600;
  const trace::Trace trace = uniform_trace(2000, 60);
  const RoutingPlan plan = route_jobs(trace, spec);
  ASSERT_GT(plan.moved, 0u);
  bool reordered = false;
  for (std::uint32_t c = 0; c < 2; ++c) {
    std::vector<trace::Job> expected;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (plan.center[i] != c) continue;
      trace::Job job = trace[i];
      if (plan.center[i] != plan.home[i]) job.submit += spec.move_penalty;
      expected.push_back(job);
    }
    const std::vector<trace::Job> filtered = expected;
    std::stable_sort(expected.begin(), expected.end(), trace::submit_before);
    const trace::Trace local = build_center_trace(trace, spec, plan, c);
    ASSERT_EQ(local.size(), expected.size()) << "center " << c;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(local[k].id, expected[k].id) << "center " << c << " pos " << k;
      ASSERT_EQ(local[k].submit, expected[k].submit) << "job " << local[k].id;
      reordered = reordered || filtered[k].id != expected[k].id;
    }
    local.validate();
  }
  EXPECT_TRUE(reordered);  // the case exercises out-of-order inserts
}

TEST(SimulateCenterTest, SingleCenterIsByteIdenticalToPlainCell) {
  MetaSpec one;
  CenterSpec only;
  only.name = "solo";
  one.centers = {only};
  run::JobSpec meta_cell = meta_job_spec(one, 0);

  run::JobSpec plain = meta_cell;
  plain.meta = nullptr;
  plain.meta_center = 0;

  const sim::SimResult via_meta = run::run_alone(meta_cell).result;
  const sim::SimResult direct = run::run_alone(plain).result;
  EXPECT_TRUE(run::results_identical(via_meta, direct));
  EXPECT_EQ(via_meta.trace_name, direct.trace_name);
}

/// An `n`-center scenario under `router` with a nonzero move penalty:
/// tariffs phase-shifted by 24h/n, every other center half the global
/// machine, so both capacity and price steer the routing.
MetaSpec n_center_spec(std::size_t n, const std::string& router) {
  static const char* const kCenterNames[] = {"c0", "c1", "c2",
                                             "c3", "c4", "c5"};
  MetaSpec spec;
  spec.router = router;
  spec.move_penalty = 900;
  for (std::size_t i = 0; i < n; ++i) {
    CenterSpec center;
    center.name = kCenterNames[i];
    center.nodes = i % 2 == 0 ? 0 : 32;
    center.trace_share = 1.0 + static_cast<double>(i % 3);
    center.pricing.tz_offset_min =
        static_cast<std::int64_t>(i * (24 * 60 / n));
    center.policy.name = i % 2 == 0 ? "fcfs" : "greedy";
    spec.centers.push_back(center);
  }
  return spec;
}

/// One in-process cell per center of `spec`, over `global`.
std::vector<run::SimJob> scenario_cells(const MetaSpec& spec,
                                        const trace::Trace& global) {
  const auto shared = std::make_shared<const MetaSpec>(spec);
  std::vector<run::SimJob> cells;
  for (std::uint32_t c = 0; c < spec.centers.size(); ++c) {
    run::SimJob job;
    job.trace = run::borrow(global);
    job.pricing = run::build_pricing(spec.centers[c].pricing);
    const std::string policy = spec.centers[c].policy.name;
    job.make_policy = [policy] { return core::make_policy_by_name(policy); };
    auto js = std::make_shared<run::JobSpec>(meta_job_spec(spec, c));
    js->meta = shared;
    js->label = spec.centers[c].name;
    job.spec = std::move(js);
    cells.push_back(std::move(job));
  }
  return cells;
}

std::uint64_t route_plans() {
  return obs::Registry::global().counter("meta.route_plans").value();
}

std::uint64_t route_moved() {
  return obs::Registry::global().counter("meta.route.moved").value();
}

TEST(ScenarioGroupTest, OneRoutingPassPerTaskMatchesOneCenterPerGroup) {
  const bool counters_were_on = obs::counters_enabled();
  obs::set_counters_enabled(true);
  const trace::Trace global = uniform_trace(240, 45, 4);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 6u}) {
    for (const std::string& router : known_router_names()) {
      SCOPED_TRACE("N=" + std::to_string(n) + " router=" + router);
      const std::vector<run::SimJob> cells =
          scenario_cells(n_center_spec(n, router), global);

      run::SweepRunner alone(1);
      alone.set_prefix_sharing(false);
      std::uint64_t before = route_plans();
      const auto reference = alone.run(cells);
      EXPECT_EQ(route_plans() - before, n);

      run::SweepRunner grouped(2);
      before = route_plans();
      const std::uint64_t moved_before = route_moved();
      const auto results = grouped.run(cells);
      const std::size_t tasks =
          (n + run::wire::kMaxTaskMembers - 1) / run::wire::kMaxTaskMembers;
      EXPECT_EQ(route_plans() - before, tasks);
      // The move penalty is exercised: the price-aware routers move jobs.
      if (n > 1 && router != "home") {
        EXPECT_GT(route_moved(), moved_before);
      }
      EXPECT_EQ(grouped.last_stats().simulated_cells, n);
      EXPECT_EQ(grouped.last_stats().rebilled_cells, 0u);
      ASSERT_EQ(results.size(), n);
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_TRUE(run::results_identical(results[c], reference[c]))
            << "center " << c;
      }
    }
  }
  obs::set_counters_enabled(counters_were_on);
}

TEST(ScenarioGroupTest, WorkerGroupBuildsAndRoutesOnceLikeSingleCells) {
  // The worker path: execute_group rebuilds the global trace from the
  // TraceSpec once and routes it once for the whole group.
  const bool counters_were_on = obs::counters_enabled();
  obs::set_counters_enabled(true);
  const MetaSpec spec = n_center_spec(3, "balanced-cost");
  std::vector<run::JobSpec> group;
  for (std::uint32_t c = 0; c < 3; ++c) group.push_back(meta_job_spec(spec, c));
  const std::uint64_t before = route_plans();
  run::TraceCache traces;
  const std::vector<run::MemberOutcome> out =
      run::execute_group(group, 0, traces);
  EXPECT_EQ(route_plans() - before, 1u);
  obs::set_counters_enabled(counters_were_on);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint32_t c = 0; c < 3; ++c) {
    ASSERT_TRUE(out[c].ok()) << out[c].error;
    EXPECT_TRUE(run::results_identical(out[c].result,
                                       run::run_alone(group[c]).result))
        << "center " << c;
  }
}

TEST(ScenarioGroupTest, RoutingFailureFailsEveryMemberBadCenterOnlyItself) {
  // Four-node jobs on two-node centers: no center fits, routing throws.
  MetaSpec small = n_center_spec(3, "cheapest-now");
  for (CenterSpec& c : small.centers) c.nodes = 2;
  const trace::Trace global = uniform_trace(20, 60, 4);
  std::vector<run::JobSpec> specs;
  for (std::uint32_t c = 0; c < 3; ++c) specs.push_back(meta_job_spec(small, c));
  std::vector<const run::JobSpec*> members;
  for (const run::JobSpec& spec : specs) members.push_back(&spec);
  const auto failed = simulate_centers(global, members, sim::SimConfig{});
  ASSERT_EQ(failed.size(), 3u);
  EXPECT_NE(failed[0].error.find("no center is that large"), std::string::npos)
      << failed[0].error;
  for (const run::MemberOutcome& o : failed) {
    EXPECT_EQ(o.error, failed[0].error);
  }

  // A center index out of range fails that member alone; the others
  // match their one-center groups.
  const MetaSpec spec = n_center_spec(3, "cheapest-now");
  specs.clear();
  for (std::uint32_t c = 0; c < 3; ++c) specs.push_back(meta_job_spec(spec, c));
  specs[1].meta_center = 9;
  members.clear();
  for (const run::JobSpec& s : specs) members.push_back(&s);
  const auto out = simulate_centers(global, members, sim::SimConfig{});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(out[1].ok());
  EXPECT_NE(out[1].error.find("center"), std::string::npos) << out[1].error;
  for (const std::size_t k : {0u, 2u}) {
    ASSERT_TRUE(out[k].ok()) << out[k].error;
    const auto alone = simulate_centers(global, {members[k]}, sim::SimConfig{});
    ASSERT_TRUE(alone.front().ok()) << alone.front().error;
    EXPECT_TRUE(run::results_identical(out[k].result, alone.front().result))
        << "member " << k;
  }
}

TEST(SimulateCenterTest, CentersPartitionTheGlobalTrace) {
  const MetaSpec spec = two_center_spec("cheapest-now");
  const run::JobSpec west = meta_job_spec(spec, 0);
  const run::JobSpec east = meta_job_spec(spec, 1);
  const sim::SimResult rw = run::run_alone(west).result;
  const sim::SimResult re = run::run_alone(east).result;
  const trace::Trace global = run::build_trace(west.trace);
  EXPECT_EQ(rw.records.size() + re.records.size(), global.size());
  EXPECT_NE(rw.trace_name, re.trace_name);
  EXPECT_GT(rw.records.size(), 0u);
  EXPECT_GT(re.records.size(), 0u);
}

TEST(MetaKeyTest, MetaSegmentAppearsOnlyOnMetaCells) {
  const MetaSpec spec = two_center_spec();
  const run::JobSpec meta_cell = meta_job_spec(spec, 1);
  run::JobSpec plain = meta_cell;
  plain.meta = nullptr;

  EXPECT_EQ(run::share_key(plain).find("|meta:"), std::string::npos);
  EXPECT_EQ(run::cell_key(plain).find("|meta:"), std::string::npos);
  const std::string meta_share = run::share_key(meta_cell);
  EXPECT_NE(meta_share.find("|meta:"), std::string::npos);
  EXPECT_NE(meta_share.find("#center:1"), std::string::npos);

  // Different centers of one scenario are different cells.
  const run::JobSpec other = meta_job_spec(spec, 0);
  EXPECT_NE(run::cell_key(meta_cell), run::cell_key(other));
}

TEST(MetaKeyTest, TzOffsetTokenAppearsOnlyWhenShifted) {
  run::JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  const std::string base = run::share_key(spec);
  EXPECT_EQ(base.find("@tz"), std::string::npos);
  spec.pricing.tz_offset_min = 720;
  const std::string shifted = run::share_key(spec);
  EXPECT_NE(shifted.find("@tz720"), std::string::npos);
  EXPECT_NE(base, shifted);
  // A flat tariff has no period structure for the offset to shift.
  spec.pricing.model = "flat";
  EXPECT_EQ(run::share_key(spec).find("@tz"), std::string::npos);
}

TEST(MetaSweepTest, IdenticalMetaCellsCopyAndNeverRebill) {
  const MetaSpec spec = two_center_spec("cheapest-now");
  const trace::Trace global = uniform_trace(50);
  const auto shared = run::borrow(global);
  const auto pricing = run::build_pricing(spec.centers[0].pricing);

  const auto make_job = [&](std::uint32_t center) {
    run::SimJob job;
    job.trace = shared;
    job.pricing = run::borrow(*pricing);
    job.make_policy = [] { return core::make_policy_by_name("fcfs"); };
    auto js = std::make_shared<run::JobSpec>(meta_job_spec(spec, center));
    job.spec = js;
    return job;
  };
  // Two identical cells for center 0, one for center 1: the duplicate
  // must come back as a copy (same cell_key), and no meta cell may ever
  // take the rebill path (the outer tariff is unused, so a rebill would
  // bill the wrong tariff).
  const std::vector<run::SimJob> sweep = {make_job(0), make_job(0),
                                          make_job(1)};
  run::SweepRunner runner(1);
  const auto results = runner.run(sweep);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(runner.last_stats().copied_cells, 1u);
  EXPECT_EQ(runner.last_stats().rebilled_cells, 0u);
  EXPECT_TRUE(run::results_identical(results[0], results[1]));
  EXPECT_FALSE(run::results_identical(results[0], results[2]));
}

TEST(MetaSweepTest, SubprocessPoolMatchesInProcessByteForByte) {
  if (run::SubprocessPool::find_worker().empty()) {
    GTEST_SKIP() << "esched-worker binary not found";
  }
  const MetaSpec spec = two_center_spec("cheapest-window");
  std::vector<run::JobSpec> cells = {meta_job_spec(spec, 0),
                                     meta_job_spec(spec, 1)};
  run::SubprocessPool pool;
  const auto remote = pool.run(cells);
  ASSERT_EQ(remote.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SimResult local = run::run_alone(cells[i]).result;
    EXPECT_TRUE(run::results_identical(local, remote[i])) << "center " << i;
  }
}

}  // namespace
}  // namespace esched::meta
