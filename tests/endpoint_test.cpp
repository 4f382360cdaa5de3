// Pins the transport-shared failure primitives of run/endpoint.hpp: the
// capped exponential backoff every plane's cell queue retries under
// (run::CellQueue's own contract is cell_queue_test's).
#include "run/endpoint.hpp"

#include <gtest/gtest.h>

namespace {

using namespace esched;

TEST(RetryPolicyTest, BackoffIsCappedExponential) {
  run::RetryPolicy p;
  p.backoff_initial_seconds = 0.05;
  p.backoff_max_seconds = 0.3;
  EXPECT_DOUBLE_EQ(p.backoff_seconds(1), 0.05);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(2), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(3), 0.2);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(4), 0.3);  // capped
  EXPECT_DOUBLE_EQ(p.backoff_seconds(10), 0.3);
}

}  // namespace
