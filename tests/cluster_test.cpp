// Tests for the Cluster node pool and its power accounting.
#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/error.hpp"

namespace esched::sim {
namespace {

TEST(ClusterTest, AllocateAndRelease) {
  Cluster c(100);
  EXPECT_EQ(c.total_nodes(), 100);
  EXPECT_EQ(c.free_nodes(), 100);
  EXPECT_EQ(c.busy_nodes(), 0);

  const std::int32_t a = c.allocate_slot(30, 25.0);
  EXPECT_EQ(c.free_nodes(), 70);
  EXPECT_EQ(c.busy_nodes(), 30);
  EXPECT_EQ(c.running_jobs(), 1u);

  const std::int32_t b = c.allocate_slot(70, 40.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(c.free_nodes(), 0);
  EXPECT_FALSE(c.fits(1));

  c.release_slot(a);
  EXPECT_EQ(c.free_nodes(), 30);
  c.release_slot(b);
  EXPECT_EQ(c.free_nodes(), 100);
  EXPECT_EQ(c.running_jobs(), 0u);
}

TEST(ClusterTest, PowerTracksRunningMix) {
  Cluster c(100);
  EXPECT_DOUBLE_EQ(c.current_power(), 0.0);
  const std::int32_t a = c.allocate_slot(10, 25.0);  // 250 W
  EXPECT_DOUBLE_EQ(c.current_power(), 250.0);
  const std::int32_t b = c.allocate_slot(20, 50.0);  // +1000 W
  EXPECT_DOUBLE_EQ(c.current_power(), 1250.0);
  c.release_slot(a);
  EXPECT_DOUBLE_EQ(c.current_power(), 1000.0);
  c.release_slot(b);
  EXPECT_DOUBLE_EQ(c.current_power(), 0.0);
}

TEST(ClusterTest, IdlePowerCountsFreeNodes) {
  Cluster c(10, /*idle_watts_per_node=*/5.0);
  EXPECT_DOUBLE_EQ(c.current_power(), 50.0);  // all idle
  const std::int32_t a = c.allocate_slot(4, 30.0);
  // 4*30 busy + 6*5 idle.
  EXPECT_DOUBLE_EQ(c.current_power(), 120.0 + 30.0);
  c.release_slot(a);
  EXPECT_DOUBLE_EQ(c.current_power(), 50.0);
}

TEST(ClusterTest, RejectsMisuse) {
  Cluster c(10);
  EXPECT_THROW(c.allocate_slot(11, 10.0), Error);  // too big
  EXPECT_THROW(c.allocate_slot(0, 10.0), Error);   // no nodes
  EXPECT_THROW(c.allocate_slot(2, -1.0), Error);   // negative power
  const std::int32_t a = c.allocate_slot(5, 10.0);
  EXPECT_THROW(c.allocate_slot(6, 10.0), Error);   // over capacity
  EXPECT_THROW(c.release_slot(99), Error);         // never handed out
  EXPECT_THROW(c.release_slot(-1), Error);         // not a slot
  c.release_slot(a);
  EXPECT_THROW(c.release_slot(a), Error);          // double release
  EXPECT_EQ(c.free_nodes(), 10);
}

TEST(ClusterTest, ConstructionValidation) {
  EXPECT_THROW(Cluster(0), Error);
  EXPECT_THROW(Cluster(10, -1.0), Error);
}

}  // namespace
}  // namespace esched::sim
