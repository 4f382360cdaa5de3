// Tests for the AvailabilityProfile and conservative backfilling.
#include "core/profile_reservation.hpp"

#include <gtest/gtest.h>

#include "core/fcfs_policy.hpp"
#include "core/scheduler.hpp"
#include "metrics/metrics.hpp"
#include "oracles.hpp"
#include "power/profile.hpp"
#include "power/pricing.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::core {
namespace {

TEST(AvailabilityProfileTest, StartsFullyFree) {
  AvailabilityProfile p(100, 16);
  EXPECT_EQ(p.find_earliest(16, 60), 100);
  EXPECT_EQ(p.find_earliest(16, 1000000), 100);
  EXPECT_THROW(p.reserve(99, 200, 1), Error);  // before the start
  EXPECT_THROW(AvailabilityProfile(0, 0), Error);
}

TEST(AvailabilityProfileTest, ReservationCarvesSteps) {
  AvailabilityProfile p(0, 10);
  p.reserve(0, 100, 6);
  // 4 fit through the whole reservation; 5, or all 10, must wait for the
  // release at t=100.
  EXPECT_EQ(p.find_earliest(4, 100), 0);
  EXPECT_EQ(p.find_earliest(5, 1), 100);
  EXPECT_EQ(p.find_earliest(10, 1), 100);
}

TEST(AvailabilityProfileTest, WindowMustFitForWholeDuration) {
  AvailabilityProfile p(0, 10);
  p.reserve(50, 150, 6);  // pinch: only 4 free during [50, 150)
  // A 3-node job fits through the pinch; a 5-node job fits now only if
  // it ends by t=50, otherwise it waits for the pinch to clear.
  EXPECT_EQ(p.find_earliest(3, 1000), 0);
  EXPECT_EQ(p.find_earliest(5, 50), 0);
  EXPECT_EQ(p.find_earliest(5, 51), 150);
}

TEST(AvailabilityProfileTest, OverReservationThrows) {
  AvailabilityProfile p(0, 10);
  p.reserve(0, 100, 6);
  EXPECT_THROW(p.reserve(50, 60, 5), Error);
  EXPECT_THROW(p.reserve(10, 10, 1), Error);   // empty interval
  EXPECT_THROW(p.reserve(-5, 10, 1), Error);   // before start
}

TEST(AvailabilityProfileTest, MultipleReservationsCompose) {
  AvailabilityProfile p(0, 10);
  p.reserve(0, 100, 4);
  p.reserve(60, 200, 4);
  // Free nodes: 6 on [0, 60), 2 on [60, 100), 6 on [100, 200), then 10.
  EXPECT_EQ(p.find_earliest(6, 60), 0);
  EXPECT_EQ(p.find_earliest(2, 1000), 0);
  EXPECT_EQ(p.find_earliest(3, 61), 100);
  EXPECT_EQ(p.find_earliest(7, 1), 200);
  // A short 6-node job fits before the overlap region begins...
  EXPECT_EQ(p.find_earliest(6, 10), 0);
  // ...but one spanning the overlap must wait until the first release.
  EXPECT_EQ(p.find_earliest(6, 70), 100);
  EXPECT_EQ(p.find_earliest(10, 10), 200);
}

PendingJob job(JobId id, NodeCount nodes, DurationSec walltime) {
  return PendingJob{id, 0, nodes, walltime, 30.0};
}

TEST(ConservativeBackfillTest, BackfillMayNotDelayAnyReservation) {
  FcfsPolicy policy;
  SchedulerConfig cfg;
  cfg.backfill_mode = BackfillMode::kConservative;
  Scheduler scheduler(policy, cfg);
  // 10 free. J1 takes 6 (ends ~1000). J2 needs 8: reserved at t=1000.
  // J3 (4 nodes, 900 s): under EASY it backfills (ends by 1000). Under
  // conservative it must ALSO not delay J4's reservation...
  // J4 (2 nodes, long): reserved at now (2 <= 10-6-0... free after J1 is
  // 4, J3 takes it). Work the expectations out per profile rules.
  const std::vector<PendingJob> queue{
      job(1, 6, 1000),
      job(2, 8, 500),
      job(3, 4, 900),
      job(4, 2, 10000),
  };
  const ScheduleContext ctx{0, 10, 10, power::PricePeriod::kOffPeak};
  const auto starts = scheduler.decide(ctx, queue, {});
  // J1 starts (t=0). J2 reserved [1000, 1500) on 8 nodes. J3: earliest
  // window for 4 nodes x 900 — free is 4 until 1000, but [0,900) keeps
  // 4 free -> starts now. After J3: free 0 until 900. J4 (2 nodes,
  // 10000): earliest at 1500? [900,1000) has 4 free, but only 100 s;
  // 1000-1500 has 2 free (10-8); a 2-node 10000 s job fits from 900?
  // From 900: needs 2 nodes through 10900; at 1000-1500 free is 2 -> yes,
  // window [900, 10900) has >= 2 free throughout -> reserved at 900, not
  // started now.
  EXPECT_EQ(starts, (std::vector<std::size_t>{0, 2}));
}

TEST(ConservativeBackfillTest, AgreesWithEasyOnSafeBackfills) {
  // Backfills that cannot delay anyone are admitted by both disciplines.
  FcfsPolicy policy;
  Scheduler easy(policy, SchedulerConfig{});
  SchedulerConfig cons_cfg;
  cons_cfg.backfill_mode = BackfillMode::kConservative;
  Scheduler conservative(policy, cons_cfg);

  // Machine 16, free 4, 12 nodes running until t=1000. The head needs 14
  // and is reserved at t=1000; the two 2-node jobs slot into the spare
  // capacity under either discipline (J2 ends before the shadow, J3 uses
  // nodes that stay spare even while the head runs).
  const std::vector<RunningJob> running{{12, 1000}};
  const std::vector<PendingJob> queue{
      job(1, 14, 1000),
      job(2, 2, 500),
      job(3, 2, 50000),
  };
  const ScheduleContext ctx{0, 4, 16, power::PricePeriod::kOffPeak};
  EXPECT_EQ(easy.decide(ctx, queue, running),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(conservative.decide(ctx, queue, running),
            (std::vector<std::size_t>{1, 2}));
}

TEST(ConservativeBackfillTest, DepthBoundsTheBook) {
  FcfsPolicy policy;
  SchedulerConfig cfg;
  cfg.backfill_mode = BackfillMode::kConservative;
  cfg.conservative_depth = 1;
  Scheduler scheduler(policy, cfg);
  const std::vector<PendingJob> queue{
      job(1, 8, 1000),  // blocked behind running job
      job(2, 2, 100),   // startable, but beyond the book depth
  };
  const std::vector<RunningJob> running{{8, 1000}};
  const ScheduleContext ctx{0, 2, 10, power::PricePeriod::kOffPeak};
  EXPECT_TRUE(scheduler.decide(ctx, queue, running).empty());
}

TEST(ConservativeSimulationTest, RunsAndPreservesInvariants) {
  trace::Trace t = trace::make_anl_bgp_like(1, 71);
  power::assign_profiles(t, power::ProfileConfig{}, 71);
  power::OnOffPeakPricing pricing(0.03, 3.0);
  FcfsPolicy policy;
  sim::SimConfig cfg;
  cfg.scheduler.backfill_mode = BackfillMode::kConservative;
  const sim::SimResult r = sim::simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records.size(), t.size());
  EXPECT_NO_THROW(metrics::validate_result(r));

  // Conservative never beats EASY on utilization.
  FcfsPolicy policy2;
  const sim::SimResult easy = sim::simulate(t, pricing, policy2);
  EXPECT_LE(metrics::overall_utilization(r),
            metrics::overall_utilization(easy) + 0.01);
}

}  // namespace
}  // namespace esched::core
