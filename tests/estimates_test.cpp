// Tests for the walltime-estimate transforms.
#include "trace/estimates.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace esched::trace {
namespace {

Trace make_trace() {
  Trace t("est", 64);
  for (int i = 0; i < 50; ++i) {
    Job j;
    j.id = i + 1;
    j.submit = i * 10;
    j.nodes = 4;
    j.runtime = 600 + i * 137;  // 10 min .. ~2.3 h
    j.walltime = j.runtime * 3;
    j.user = i % 5;
    t.add_job(j);
  }
  return t;
}

TEST(EstimatesTest, ExactSetsWalltimeToRuntime) {
  const Trace t = with_exact_estimates(make_trace());
  for (const Job& j : t.jobs()) EXPECT_EQ(j.walltime, j.runtime);
  EXPECT_DOUBLE_EQ(estimate_accuracy(t), 1.0);
}

TEST(EstimatesTest, MenuPicksSmallestCoveringEntry) {
  const Trace t = with_menu_estimates(make_trace(), /*sloppy=*/0.0, 1);
  for (const Job& j : t.jobs()) {
    EXPECT_GE(j.walltime, j.runtime);
    // Menu entries are >= 30 minutes; a 10-minute job requests 30 min.
    if (j.runtime <= 1800) {
      EXPECT_EQ(j.walltime, 1800);
    }
    // Never more than the next menu step above the runtime (2x spacing).
    EXPECT_LE(j.walltime, std::max<DurationSec>(1800, 2 * j.runtime + 1));
  }
}

TEST(EstimatesTest, SloppyUsersRequestTheMaximum) {
  const Trace all_sloppy = with_menu_estimates(make_trace(), 1.0, 1);
  DurationSec expected = 0;
  for (const Job& j : all_sloppy.jobs())
    expected = std::max(expected, j.walltime);
  for (const Job& j : all_sloppy.jobs()) EXPECT_EQ(j.walltime, expected);

  // Fractional sloppiness is deterministic in the seed.
  const Trace a = with_menu_estimates(make_trace(), 0.3, 9);
  const Trace b = with_menu_estimates(make_trace(), 0.3, 9);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].walltime, b[i].walltime);
  EXPECT_THROW(with_menu_estimates(make_trace(), 1.5, 1), Error);
}

TEST(EstimatesTest, AccuracyOrdering) {
  const Trace base = make_trace();
  const double exact = estimate_accuracy(with_exact_estimates(base));
  const double x3 = estimate_accuracy(base);  // walltime = 3 x runtime
  const double menu = estimate_accuracy(with_menu_estimates(base, 0.0, 1));
  const double sloppy = estimate_accuracy(with_menu_estimates(base, 1.0, 1));
  EXPECT_GT(exact, x3);
  EXPECT_NEAR(x3, 1.0 / 3.0, 1e-12);
  EXPECT_GT(menu, sloppy);
  EXPECT_DOUBLE_EQ(estimate_accuracy(Trace("empty", 4)), 1.0);
}

}  // namespace
}  // namespace esched::trace
