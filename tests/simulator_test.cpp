// Tests for the event-driven simulator: hand-computable scenarios.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "oracles.hpp"
#include "power/profile.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::sim {
namespace {

using core::FcfsPolicy;
using core::GreedyPowerPolicy;
using power::FlatPricing;
using power::OnOffPeakPricing;

trace::Job make_job(JobId id, TimeSec submit, NodeCount nodes,
                    DurationSec runtime, Watts power,
                    DurationSec walltime = 0) {
  trace::Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.walltime = walltime > 0 ? walltime : runtime;
  j.power_per_node = power;
  return j;
}

TEST(SimulatorTest, SingleJobLifecycleAndBill) {
  trace::Trace t("one", 16);
  t.add_job(make_job(1, 0, 10, 3600, 20.0));
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  const SimResult r = simulate(t, pricing, policy);

  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].start, 0);   // tick boundary at t=0
  EXPECT_EQ(r.records[0].finish, 3600);
  EXPECT_EQ(r.records[0].wait(), 0);
  EXPECT_EQ(r.horizon_begin, 0);
  EXPECT_EQ(r.horizon_end, 3600);
  // 200 W for 1 h = 0.2 kWh at $0.10.
  EXPECT_NEAR(r.total_energy, 200.0 * 3600.0, 1e-6);
  EXPECT_NEAR(r.total_bill, 0.02, 1e-9);
}

TEST(SimulatorTest, SubmissionOffTickWaitsForBoundary) {
  trace::Trace t("offtick", 16);
  t.add_job(make_job(1, 7, 4, 600, 30.0));
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  SimConfig cfg;
  cfg.tick_interval = 10;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records[0].start, 10);  // next 10 s boundary after t=7
  EXPECT_EQ(r.records[0].wait(), 3);
}

TEST(SimulatorTest, TickIntervalDelaysFreedNodes) {
  // Two full-machine jobs back to back: the second starts at the first
  // tick boundary after the first finishes — the Table 4/5 mechanism.
  for (const DurationSec interval : {10, 20, 30}) {
    trace::Trace t("pair", 10);
    t.add_job(make_job(1, 0, 10, 100, 25.0));
    t.add_job(make_job(2, 0, 10, 100, 25.0));
    FlatPricing pricing(0.10);
    FcfsPolicy policy;
    SimConfig cfg;
    cfg.tick_interval = interval;
    const SimResult r = simulate(t, pricing, policy, cfg);
    EXPECT_EQ(r.records[0].start, 0);
    const TimeSec expected_start = next_tick_at_or_after(100, interval);
    EXPECT_EQ(r.records[1].start, expected_start)
        << "interval=" << interval;
    EXPECT_EQ(r.horizon_end, expected_start + 100);
  }
}

TEST(SimulatorTest, FcfsOrderPreservedUnderContention) {
  trace::Trace t("fcfs", 10);
  t.add_job(make_job(1, 0, 10, 500, 25.0));
  t.add_job(make_job(2, 10, 6, 500, 25.0));
  t.add_job(make_job(3, 20, 6, 100, 25.0));
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  const SimResult r = simulate(t, pricing, policy);
  // At t=500 jobs 2 and 3 are both waiting; only 2 fits (6+6 > 10). Job 3
  // then needs 6 > the 4 leftover nodes, so it waits for job 2's end.
  EXPECT_EQ(r.records[1].start, 500);
  EXPECT_EQ(r.records[2].start, 1000);
}

TEST(SimulatorTest, EasyBackfillLetsShortJobJumpQueue) {
  trace::Trace t("easy", 10);
  t.add_job(make_job(1, 0, 6, 1000, 25.0, 1000));
  t.add_job(make_job(2, 10, 8, 500, 25.0, 500));    // blocked until 1000
  t.add_job(make_job(3, 20, 4, 500, 25.0, 500));    // fits & ends by 1000
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  const SimResult r = simulate(t, pricing, policy);
  EXPECT_EQ(r.records[0].start, 0);
  EXPECT_EQ(r.records[2].start, 20);    // backfilled at its arrival tick
  EXPECT_EQ(r.records[1].start, 1000);  // reservation honoured
}

TEST(SimulatorTest, BillSplitsAcrossPricePeriods) {
  // One job spanning noon: 1 h before, 1 h after.
  trace::Trace t("noon", 16);
  const TimeSec start = 11 * kSecondsPerHour;
  t.add_job(make_job(1, start, 10, 2 * kSecondsPerHour, 100.0));
  OnOffPeakPricing pricing(0.03, 3.0);
  FcfsPolicy policy;
  const SimResult r = simulate(t, pricing, policy);
  // 1 kW: 1 h off-peak at 0.03 + 1 h on-peak at 0.09.
  EXPECT_NEAR(r.bill_off_peak, 0.03, 1e-9);
  EXPECT_NEAR(r.bill_on_peak, 0.09, 1e-9);
  EXPECT_NEAR(r.total_bill, 0.12, 1e-9);
  EXPECT_NEAR(r.energy_on_peak, r.energy_off_peak, 1e-6);
}

TEST(SimulatorTest, IdlePowerAppearsInBill) {
  trace::Trace t("idle", 10);
  t.add_job(make_job(1, 0, 10, 3600, 20.0));
  t.add_job(make_job(2, 2 * 3600, 10, 3600, 20.0));  // 1 h idle gap
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  SimConfig cfg;
  cfg.idle_watts_per_node = 5.0;
  const SimResult r = simulate(t, pricing, policy, cfg);
  // Busy: 2 jobs * 200 W * 1 h. Idle: machine idle 1 h at 50 W, and free
  // nodes are 0 while jobs run.
  const double busy_j = 2 * 200.0 * 3600.0;
  const double idle_j = 50.0 * 3600.0;
  EXPECT_NEAR(r.total_energy, busy_j + idle_j, 1e-3);
}

TEST(SimulatorTest, GreedyReordersWithinWindowOnPeak) {
  // Three jobs submitted 10 minutes before midnight (end of on-peak).
  // Greedy runs the two cool jobs during the expensive tail and defers the
  // hot one into off-peak; FCFS does the opposite. Same total energy,
  // different bill — the paper's mechanism in miniature.
  const TimeSec submit = kSecondsPerDay - 600;
  trace::Trace t("greedy", 10);
  t.add_job(make_job(1, submit, 10, 600, 50.0));  // hot: 500 W
  t.add_job(make_job(2, submit, 5, 600, 10.0));   // cool: 50 W
  t.add_job(make_job(3, submit, 5, 600, 20.0));   // cool: 100 W
  OnOffPeakPricing pricing(0.03, 3.0);

  FcfsPolicy fcfs;
  const SimResult rf = simulate(t, pricing, fcfs);
  EXPECT_EQ(rf.records[0].start, submit);
  EXPECT_EQ(rf.records[1].start, kSecondsPerDay);

  GreedyPowerPolicy greedy;
  const SimResult rg = simulate(t, pricing, greedy);
  EXPECT_EQ(rg.records[1].start, submit);
  EXPECT_EQ(rg.records[2].start, submit);
  EXPECT_EQ(rg.records[0].start, kSecondsPerDay);

  EXPECT_NEAR(rg.total_energy, rf.total_energy, 1e-6);
  // Greedy: 150 W on-peak + 500 W off-peak; FCFS: 500 W on + 150 W off.
  const double hours = 600.0 / 3600.0;
  const double expected_fcfs = 0.5 * hours * 0.09 + 0.15 * hours * 0.03;
  const double expected_greedy = 0.15 * hours * 0.09 + 0.5 * hours * 0.03;
  EXPECT_NEAR(rf.total_bill, expected_fcfs, 1e-9);
  EXPECT_NEAR(rg.total_bill, expected_greedy, 1e-9);
  EXPECT_LT(rg.total_bill, rf.total_bill);
}

TEST(SimulatorTest, DeterministicRepeatability) {
  trace::Trace t = trace::make_anl_bgp_like(1, 5);
  power::assign_profiles(t, power::ProfileConfig{}, 5);
  OnOffPeakPricing pricing(0.03, 3.0);
  core::KnapsackPolicy policy;
  const SimResult a = simulate(t, pricing, policy);
  const SimResult b = simulate(t, pricing, policy);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start, b.records[i].start);
    EXPECT_EQ(a.records[i].finish, b.records[i].finish);
  }
  EXPECT_DOUBLE_EQ(a.total_bill, b.total_bill);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
}

TEST(SimulatorTest, DailyCurvesReflectLoad) {
  // A job running 00:00-06:00 every value bin in [0,6) should show the
  // full power; bins after 06:00 show zero.
  trace::Trace t("curve", 10);
  t.add_job(make_job(1, 0, 10, 6 * kSecondsPerHour, 30.0));
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  SimConfig cfg;
  cfg.daily_curve_bins = 24;
  const SimResult r = simulate(t, pricing, policy, cfg);
  ASSERT_EQ(r.power_curve.size(), 24u);
  EXPECT_NEAR(r.power_curve[0], 300.0, 1e-9);
  EXPECT_NEAR(r.power_curve[5], 300.0, 1e-9);
  EXPECT_NEAR(r.utilization_curve[3], 1.0, 1e-9);
  // Bin 6+ has zero observed time (horizon ends at 06:00), so average 0.
  EXPECT_DOUBLE_EQ(r.power_curve[7], 0.0);
}

TEST(SimulatorTest, SinglePassPerTickDefersRefill) {
  // Window of 1: the quiescence loop starts both queued jobs at the same
  // tick (window refills within the tick); single-pass mode leaves the
  // second job for the next tick even though nodes are free.
  trace::Trace t("refill", 10);
  t.add_job(make_job(1, 0, 4, 600, 30.0));
  t.add_job(make_job(2, 0, 4, 600, 30.0));
  FlatPricing pricing(0.10);

  GreedyPowerPolicy policy;
  SimConfig quiescent;
  quiescent.scheduler.window_size = 1;
  const SimResult rq = simulate(t, pricing, policy, quiescent);
  EXPECT_EQ(rq.records[0].start, 0);
  EXPECT_EQ(rq.records[1].start, 0);

  SimConfig single = quiescent;
  single.max_passes_per_tick = 1;
  single.scheduler.backfill_beyond_window = false;
  const SimResult rs = simulate(t, pricing, policy, single);
  EXPECT_EQ(rs.records[0].start, 0);
  EXPECT_EQ(rs.records[1].start, 10);  // next tick
}

TEST(SimulatorTest, SinglePassStillCompletesEverything) {
  trace::Trace t = trace::make_anl_bgp_like(1, 8);
  power::assign_profiles(t, power::ProfileConfig{}, 8);
  OnOffPeakPricing pricing(0.03, 3.0);
  core::KnapsackPolicy policy;
  SimConfig cfg;
  cfg.max_passes_per_tick = 1;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records.size(), t.size());
  EXPECT_NO_THROW(metrics::validate_result(r));
}

TEST(SimulatorTest, CurvesCanBeDisabled) {
  trace::Trace t("nocurve", 10);
  t.add_job(make_job(1, 0, 10, 600, 30.0));
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  SimConfig cfg;
  cfg.record_daily_curves = false;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_TRUE(r.power_curve.empty());
  EXPECT_TRUE(r.utilization_curve.empty());
}

TEST(SimulatorTest, EmptyTraceYieldsEmptyResult) {
  trace::Trace t("empty", 10);
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  const SimResult r = simulate(t, pricing, policy);
  EXPECT_TRUE(r.records.empty());
  EXPECT_DOUBLE_EQ(r.total_bill, 0.0);
}

TEST(SimulatorTest, RejectsBadConfig) {
  trace::Trace t("bad", 10);
  t.add_job(make_job(1, 0, 4, 60, 20.0));
  FlatPricing pricing(0.10);
  FcfsPolicy policy;
  SimConfig cfg;
  cfg.tick_interval = 0;
  EXPECT_THROW(simulate(t, pricing, policy, cfg), Error);
}

TEST(SimulatorTest, ResultPassesInvariantValidation) {
  trace::Trace t = trace::make_sdsc_blue_like(1, 3);
  power::assign_profiles(t, power::ProfileConfig{}, 3);
  OnOffPeakPricing pricing(0.03, 3.0);
  for (int which = 0; which < 3; ++which) {
    FcfsPolicy fcfs;
    GreedyPowerPolicy greedy;
    core::KnapsackPolicy knapsack;
    core::SchedulingPolicy& policy =
        which == 0 ? static_cast<core::SchedulingPolicy&>(fcfs)
        : which == 1 ? static_cast<core::SchedulingPolicy&>(greedy)
                     : static_cast<core::SchedulingPolicy&>(knapsack);
    const SimResult r = simulate(t, pricing, policy);
    EXPECT_NO_THROW(metrics::validate_result(r));
    EXPECT_EQ(r.records.size(), t.size());
  }
}

}  // namespace
}  // namespace esched::sim
