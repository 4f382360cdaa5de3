// Tests for trace transformations.
#include "trace/transforms.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace esched::trace {
namespace {

Job make_job(JobId id, TimeSec submit) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = 4;
  j.runtime = 600;
  j.walltime = 900;
  j.power_per_node = 25.0;
  return j;
}

Trace make_trace() {
  Trace t("orig", 64);
  t.add_job(make_job(1, 100));
  t.add_job(make_job(2, 200));
  t.add_job(make_job(3, 400));
  t.add_job(make_job(4, 1000));
  return t;
}

TEST(TransformsTest, ScaleArrivalsShrinksGaps) {
  const Trace t = make_trace();
  // The paper's "decrease arrival intervals by 40%" = factor 0.6.
  const Trace s = scale_arrivals(t, 0.6);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].submit, 100);                 // first job anchored
  EXPECT_EQ(s[1].submit, 100 + 60);            // gap 100 -> 60
  EXPECT_EQ(s[2].submit, 100 + 60 + 120);      // gap 200 -> 120
  EXPECT_EQ(s[3].submit, 100 + 60 + 120 + 360);  // gap 600 -> 360
  // Everything else preserved.
  EXPECT_EQ(s[2].id, 3);
  EXPECT_EQ(s[2].runtime, 600);
}

TEST(TransformsTest, ScaleArrivalsIdentity) {
  const Trace t = make_trace();
  const Trace s = scale_arrivals(t, 1.0);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(s[i].submit, t[i].submit);
}

TEST(TransformsTest, ScaleArrivalsExpands) {
  const Trace t = make_trace();
  const Trace s = scale_arrivals(t, 2.0);
  EXPECT_EQ(s[3].submit, 100 + 2 * 900);
}

TEST(TransformsTest, ScaleArrivalsRejectsNonPositive) {
  const Trace t = make_trace();
  EXPECT_THROW(scale_arrivals(t, 0.0), Error);
  EXPECT_THROW(scale_arrivals(t, -1.0), Error);
}

TEST(TransformsTest, ScaleArrivalsRoundingStaysBounded) {
  // Irrational-ish factor over many jobs: cumulative rounding must not
  // drift (we accumulate in double and round once per job).
  Trace t("long", 8);
  for (int i = 0; i < 1000; ++i)
    t.add_job(make_job(i + 1, static_cast<TimeSec>(i) * 7));
  const double factor = 1.0 / 3.0;
  const Trace s = scale_arrivals(t, factor);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double expected = 0.0 + static_cast<double>(7 * i) * factor;
    EXPECT_NEAR(static_cast<double>(s[i].submit), expected, 0.51);
  }
}

TEST(TransformsTest, RenumberAssignsSequentialIds) {
  Trace t("gap", 64);
  t.add_job(make_job(100, 0));
  t.add_job(make_job(7, 50));
  t.add_job(make_job(999, 60));
  const Trace r = renumber(t);
  EXPECT_EQ(r[0].id, 1);
  EXPECT_EQ(r[1].id, 2);
  EXPECT_EQ(r[2].id, 3);
}

TEST(TransformsTest, InputNeverMutated) {
  const Trace t = make_trace();
  (void)scale_arrivals(t, 0.5);
  (void)renumber(t);
  EXPECT_EQ(t[0].submit, 100);
  EXPECT_EQ(t[0].id, 1);
  EXPECT_EQ(t.size(), 4u);
}

}  // namespace
}  // namespace esched::trace
