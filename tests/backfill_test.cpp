// Tests for the EASY reservation computation and admission test.
#include "core/backfill.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace esched::core {
namespace {

TEST(ReservationTest, UnblockedStartsNow) {
  const std::vector<RunningJob> running{{10, 500}};
  std::vector<RunningJob> by_end;
  const Reservation r = compute_reservation(4, 6, 100, running, by_end);
  EXPECT_EQ(r.shadow_time, 100);
  EXPECT_EQ(r.extra_nodes, 2);
}

TEST(ReservationTest, WaitsForEarliestSufficientRelease) {
  // free=2, need 8. Releases: 4 nodes @ t=300, 4 @ t=500, 8 @ t=900.
  const std::vector<RunningJob> running{{4, 300}, {4, 500}, {8, 900}};
  std::vector<RunningJob> by_end;
  const Reservation r = compute_reservation(8, 2, 100, running, by_end);
  EXPECT_EQ(r.shadow_time, 500);  // 2+4+4 = 10 >= 8
  EXPECT_EQ(r.extra_nodes, 2);
}

TEST(ReservationTest, UnsortedRunningSetHandled) {
  const std::vector<RunningJob> running{{8, 900}, {4, 300}, {4, 500}};
  std::vector<RunningJob> by_end;
  const Reservation r = compute_reservation(8, 2, 100, running, by_end);
  EXPECT_EQ(r.shadow_time, 500);
}

TEST(ReservationTest, OverdueEstimatesClampToNow) {
  // A job past its walltime estimate (est_end < now) is treated as "could
  // end any moment", i.e. at `now`.
  const std::vector<RunningJob> running{{6, 50}};
  std::vector<RunningJob> by_end;
  const Reservation r = compute_reservation(8, 2, 100, running, by_end);
  EXPECT_EQ(r.shadow_time, 100);
  EXPECT_EQ(r.extra_nodes, 0);
}

TEST(ReservationTest, BlockerLargerThanMachineThrows) {
  const std::vector<RunningJob> running{{4, 300}};
  std::vector<RunningJob> by_end;
  EXPECT_THROW(compute_reservation(100, 2, 0, running, by_end), Error);
  EXPECT_THROW(compute_reservation(0, 2, 0, running, by_end), Error);
}

TEST(CanBackfillTest, MustFitNow) {
  const Reservation r{1000, 4};
  const PendingJob big{1, 0, 10, 100, 30.0};
  EXPECT_FALSE(can_backfill(big, 8, 0, r));
}

TEST(CanBackfillTest, ShortJobEndingBeforeShadowPasses) {
  const Reservation r{1000, 0};
  const PendingJob job{1, 0, 8, 900, 30.0};  // ends at 900 <= 1000
  EXPECT_TRUE(can_backfill(job, 8, 0, r));
  const PendingJob exact{2, 0, 8, 1000, 30.0};  // ends exactly at shadow
  EXPECT_TRUE(can_backfill(exact, 8, 0, r));
  const PendingJob late{3, 0, 8, 1001, 30.0};
  EXPECT_FALSE(can_backfill(late, 8, 0, r));
}

TEST(CanBackfillTest, SmallJobUsingExtraNodesPasses) {
  const Reservation r{1000, 4};
  const PendingJob long_small{1, 0, 4, 999999, 30.0};
  EXPECT_TRUE(can_backfill(long_small, 8, 0, r));
  const PendingJob long_big{2, 0, 5, 999999, 30.0};
  EXPECT_FALSE(can_backfill(long_big, 8, 0, r));
}

TEST(CanBackfillTest, NowOffsetMatters) {
  const Reservation r{1000, 0};
  const PendingJob job{1, 0, 2, 600, 30.0};
  EXPECT_TRUE(can_backfill(job, 8, 300, r));   // 300+600 <= 1000
  EXPECT_FALSE(can_backfill(job, 8, 500, r));  // 500+600 > 1000
}

}  // namespace
}  // namespace esched::core
