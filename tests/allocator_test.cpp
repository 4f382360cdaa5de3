// Tests for the node-allocation models, especially the contiguous
// (fragmentation-prone) allocator.
#include "sim/allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "metrics/metrics.hpp"
#include "power/profile.hpp"
#include "power/pricing.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::sim {
namespace {

TEST(CountingAllocatorTest, MirrorsCluster) {
  CountingAllocator a(100, 2.0);
  EXPECT_EQ(a.total_nodes(), 100);
  EXPECT_EQ(a.free_nodes(), 100);
  EXPECT_TRUE(a.can_allocate(100));
  const std::int32_t first = a.try_allocate_slot(60, 30.0);
  ASSERT_GE(first, 0);
  EXPECT_FALSE(a.can_allocate(41));
  EXPECT_EQ(a.try_allocate_slot(41, 30.0), -1);
  EXPECT_GE(a.try_allocate_slot(40, 30.0), 0);
  // 60*30 + 40*30 busy, 0 idle.
  EXPECT_DOUBLE_EQ(a.current_power(), 3000.0);
  a.release_slot(first);
  EXPECT_EQ(a.free_nodes(), 60);
  EXPECT_EQ(a.name(), "counting");
}

TEST(ContiguousAllocatorTest, BasicPlacementAndRelease) {
  ContiguousAllocator a(10);
  const std::int32_t first = a.try_allocate_slot(4, 10.0);
  const std::int32_t second = a.try_allocate_slot(4, 10.0);
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  EXPECT_NE(first, second);
  EXPECT_EQ(a.free_nodes(), 2);
  EXPECT_TRUE(a.can_allocate(2));
  EXPECT_FALSE(a.can_allocate(3));
  a.release_slot(first);
  a.release_slot(second);
  EXPECT_EQ(a.free_nodes(), 10);
  EXPECT_EQ(a.largest_hole(), 10);
  EXPECT_EQ(a.hole_count(), 1u);
}

TEST(ContiguousAllocatorTest, FragmentationBlocksByCountFeasibleJobs) {
  // Fill 0..3 and 6..9, free 4..5 plus... arrange a split hole: allocate
  // three 3-node jobs (0-2, 3-5, 6-8), release the middle one. Free = 4
  // nodes (3..5 and 9) but the largest hole is 3.
  ContiguousAllocator a(10);
  ASSERT_GE(a.try_allocate_slot(3, 10.0), 0);  // 0..2
  const std::int32_t middle = a.try_allocate_slot(3, 10.0);  // 3..5
  ASSERT_GE(middle, 0);
  ASSERT_GE(a.try_allocate_slot(3, 10.0), 0);  // 6..8
  a.release_slot(middle);
  EXPECT_EQ(a.free_nodes(), 4);
  EXPECT_EQ(a.largest_hole(), 3);
  EXPECT_EQ(a.hole_count(), 2u);
  EXPECT_FALSE(a.can_allocate(4));  // count-feasible, placement-infeasible
  EXPECT_EQ(a.try_allocate_slot(4, 10.0), -1);
  EXPECT_GE(a.try_allocate_slot(3, 10.0), 0);  // fits the 3..5 hole
}

TEST(ContiguousAllocatorTest, BestFitPrefersSmallestHole) {
  // Holes of size 2 (after releasing a 2-node job) and a big tail. A
  // 2-node request should take the small hole, preserving the tail.
  ContiguousAllocator a(20);
  ASSERT_GE(a.try_allocate_slot(2, 10.0), 0);  // 0..1
  const std::int32_t middle = a.try_allocate_slot(2, 10.0);  // 2..3
  ASSERT_GE(middle, 0);
  ASSERT_GE(a.try_allocate_slot(2, 10.0), 0);  // 4..5
  a.release_slot(middle);                      // hole 2..3, tail 6..19
  ASSERT_GE(a.try_allocate_slot(2, 10.0), 0);
  // The tail must still be 14 wide: a 14-node job fits.
  EXPECT_TRUE(a.can_allocate(14));
  EXPECT_EQ(a.largest_hole(), 14);
}

TEST(ContiguousAllocatorTest, PowerAccounting) {
  ContiguousAllocator a(10, /*idle=*/1.0);
  EXPECT_DOUBLE_EQ(a.current_power(), 10.0);
  const std::int32_t slot = a.try_allocate_slot(4, 25.0);
  EXPECT_DOUBLE_EQ(a.current_power(), 100.0 + 6.0);
  a.release_slot(slot);
  EXPECT_DOUBLE_EQ(a.current_power(), 10.0);
}

TEST(ContiguousAllocatorTest, Misuse) {
  ContiguousAllocator a(10);
  EXPECT_THROW(a.try_allocate_slot(0, 10.0), Error);
  EXPECT_THROW(a.try_allocate_slot(2, -1.0), Error);  // negative power
  const std::int32_t slot = a.try_allocate_slot(4, 10.0);
  ASSERT_GE(slot, 0);
  EXPECT_THROW(a.release_slot(99), Error);  // never handed out
  EXPECT_THROW(a.release_slot(-1), Error);  // not a slot
  a.release_slot(slot);
  EXPECT_THROW(a.release_slot(slot), Error);  // double release
  EXPECT_EQ(a.free_nodes(), 10);
  EXPECT_THROW(ContiguousAllocator(0), Error);
}

TEST(MakeAllocatorTest, FactorySelectsModel) {
  EXPECT_EQ(make_allocator(false, 10, 0.0)->name(), "counting");
  EXPECT_EQ(make_allocator(true, 10, 0.0)->name(), "contiguous");
}

TEST(ContiguousSimulationTest, CompletesAndStaysValid) {
  trace::Trace t = trace::make_anl_bgp_like(1, 21);
  power::assign_profiles(t, power::ProfileConfig{}, 21);
  power::OnOffPeakPricing pricing(0.03, 3.0);
  core::GreedyPowerPolicy greedy;
  SimConfig cfg;
  cfg.contiguous_allocation = true;
  const SimResult r = simulate(t, pricing, greedy, cfg);
  EXPECT_EQ(r.records.size(), t.size());
  EXPECT_NO_THROW(metrics::validate_result(r));
}

TEST(ContiguousSimulationTest, FragmentationCostsUtilization) {
  trace::Trace t = trace::make_sdsc_blue_like(1, 22);
  power::assign_profiles(t, power::ProfileConfig{}, 22);
  power::OnOffPeakPricing pricing(0.03, 3.0);
  core::FcfsPolicy fcfs;
  const SimResult pool = simulate(t, pricing, fcfs);
  SimConfig cfg;
  cfg.contiguous_allocation = true;
  core::FcfsPolicy fcfs2;
  const SimResult contig = simulate(t, pricing, fcfs2, cfg);
  // The fungible pool never fails placement; the contiguous model does,
  // and pays in wait time (and possibly utilization/makespan).
  EXPECT_EQ(pool.placement_failures, 0u);
  EXPECT_GT(contig.placement_failures, 0u);
  EXPECT_GE(contig.mean_wait_seconds(), pool.mean_wait_seconds());
}

}  // namespace
}  // namespace esched::sim
