// Tests for the counting node pool (the paper's machine model) and its
// power accounting.
#include "sim/allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/error.hpp"

namespace esched::sim {
namespace {

TEST(ClusterTest, AllocateAndRelease) {
  CountingAllocator c(100);
  EXPECT_EQ(c.total_nodes(), 100);
  EXPECT_EQ(c.free_nodes(), 100);
  EXPECT_EQ(c.busy_nodes(), 0);

  const std::int32_t a = c.try_allocate_slot(30, 25.0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(c.free_nodes(), 70);
  EXPECT_EQ(c.busy_nodes(), 30);

  const std::int32_t b = c.try_allocate_slot(70, 40.0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(c.free_nodes(), 0);
  EXPECT_FALSE(c.can_allocate(1));

  c.release_slot(a);
  EXPECT_EQ(c.free_nodes(), 30);
  c.release_slot(b);
  EXPECT_EQ(c.free_nodes(), 100);
  EXPECT_EQ(c.busy_nodes(), 0);
}

TEST(ClusterTest, PowerTracksRunningMix) {
  CountingAllocator c(100);
  EXPECT_DOUBLE_EQ(c.current_power(), 0.0);
  const std::int32_t a = c.try_allocate_slot(10, 25.0);  // 250 W
  EXPECT_DOUBLE_EQ(c.current_power(), 250.0);
  const std::int32_t b = c.try_allocate_slot(20, 50.0);  // +1000 W
  EXPECT_DOUBLE_EQ(c.current_power(), 1250.0);
  c.release_slot(a);
  EXPECT_DOUBLE_EQ(c.current_power(), 1000.0);
  c.release_slot(b);
  EXPECT_DOUBLE_EQ(c.current_power(), 0.0);
}

TEST(ClusterTest, IdlePowerCountsFreeNodes) {
  CountingAllocator c(10, /*idle_watts_per_node=*/5.0);
  EXPECT_DOUBLE_EQ(c.current_power(), 50.0);  // all idle
  const std::int32_t a = c.try_allocate_slot(4, 30.0);
  // 4*30 busy + 6*5 idle.
  EXPECT_DOUBLE_EQ(c.current_power(), 120.0 + 30.0);
  c.release_slot(a);
  EXPECT_DOUBLE_EQ(c.current_power(), 50.0);
}

TEST(ClusterTest, RejectsMisuse) {
  CountingAllocator c(10);
  EXPECT_EQ(c.try_allocate_slot(11, 10.0), -1);       // too big
  EXPECT_THROW(c.try_allocate_slot(0, 10.0), Error);  // no nodes
  EXPECT_THROW(c.try_allocate_slot(2, -1.0), Error);  // negative power
  const std::int32_t a = c.try_allocate_slot(5, 10.0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(c.try_allocate_slot(6, 10.0), -1);  // over capacity
  EXPECT_THROW(c.release_slot(99), Error);      // never handed out
  EXPECT_THROW(c.release_slot(-1), Error);      // not a slot
  c.release_slot(a);
  EXPECT_THROW(c.release_slot(a), Error);  // double release
  EXPECT_EQ(c.free_nodes(), 10);
  EXPECT_DOUBLE_EQ(c.current_power(), 0.0);
}

TEST(ClusterTest, ConstructionValidation) {
  EXPECT_THROW(CountingAllocator(0), Error);
  EXPECT_THROW(CountingAllocator(10, -1.0), Error);
}

}  // namespace
}  // namespace esched::sim
