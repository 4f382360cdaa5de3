// Tests for the Trace container and trace statistics.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "trace/trace_stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace esched::trace {
namespace {

Job make_job(JobId id, TimeSec submit, NodeCount nodes,
             DurationSec runtime, Watts power = 30.0) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.walltime = runtime * 2;
  j.power_per_node = power;
  return j;
}

TEST(TraceTest, AddJobKeepsSubmitOrder) {
  Trace t("test", 64);
  t.add_job(make_job(1, 100, 4, 60));
  t.add_job(make_job(2, 50, 4, 60));   // out of order: inserted in place
  t.add_job(make_job(3, 75, 4, 60));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].id, 2);
  EXPECT_EQ(t[1].id, 3);
  EXPECT_EQ(t[2].id, 1);
  t.validate();
}

TEST(TraceTest, TiesBreakById) {
  Trace t("test", 64);
  t.add_job(make_job(9, 100, 1, 60));
  t.add_job(make_job(2, 100, 1, 60));
  EXPECT_EQ(t[0].id, 2);
  EXPECT_EQ(t[1].id, 9);
}

/// Expects `t` to hold exactly `appended` in std::stable_sort order.
void expect_stable_sorted(const Trace& t, std::vector<Job> appended) {
  std::stable_sort(appended.begin(), appended.end(), submit_before);
  ASSERT_EQ(t.size(), appended.size());
  for (std::size_t i = 0; i < appended.size(); ++i) {
    // `user` carries the append index, so equal keys check stability.
    ASSERT_EQ(t[i].id, appended[i].id) << "pos " << i;
    ASSERT_EQ(t[i].submit, appended[i].submit) << "pos " << i;
    ASSERT_EQ(t[i].user, appended[i].user) << "pos " << i;
  }
}

TEST(TraceTest, AddJobMatchesStableSortOfAppendOrder) {
  // Seeded random append orders: few distinct submits (many ties), ids
  // drawn with repeats, so whole (submit, id) keys collide too.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Trace t("prop", 64);
    std::vector<Job> appended;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    for (std::size_t i = 0; i < n; ++i) {
      Job j = make_job(rng.uniform_int(1, 200), rng.uniform_int(0, 40), 1, 60);
      j.user = static_cast<int>(i);
      t.add_job(j);
      appended.push_back(j);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_stable_sorted(t, appended);
  }
}

TEST(TraceTest, CarvePatternInsertsInLinearTime) {
  // The multi-center carve's shape: every other job arrives a move
  // penalty (ten gaps) late. A re-sort per out-of-order append made this
  // take minutes; an in-place insert moves each on-time job past the at
  // most five late jobs ahead of it.
  Trace t("carve", 64);
  std::vector<Job> appended;
  constexpr std::size_t kJobs = 200000;
  appended.reserve(kJobs);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kJobs; ++i) {
    const auto step = static_cast<TimeSec>(i) * 60;
    Job j = make_job(static_cast<JobId>(i + 1), step + (i % 2 ? 600 : 0), 1,
                     60);
    j.user = static_cast<int>(i);
    t.add_job(j);
    appended.push_back(j);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 5.0);  // well under a second, even under sanitizers
  expect_stable_sorted(t, appended);
  t.validate();
}

TEST(TraceTest, RejectsInvalidJobs) {
  Trace t("test", 64);
  EXPECT_THROW(t.add_job(make_job(1, 0, 0, 60)), Error);     // no nodes
  EXPECT_THROW(t.add_job(make_job(1, 0, 65, 60)), Error);    // too big
  EXPECT_THROW(t.add_job(make_job(1, 0, 4, 0)), Error);      // no runtime
  EXPECT_THROW(t.add_job(make_job(1, -5, 4, 60)), Error);    // negative t
  Job bad_power = make_job(1, 0, 4, 60);
  bad_power.power_per_node = -1.0;
  EXPECT_THROW(t.add_job(bad_power), Error);
  Job bad_wall = make_job(1, 0, 4, 60);
  bad_wall.walltime = 0;
  EXPECT_THROW(t.add_job(bad_wall), Error);
}

TEST(TraceTest, ValidateCatchesDuplicateIds) {
  Trace t("test", 64);
  t.add_job(make_job(1, 0, 4, 60));
  t.add_job(make_job(1, 10, 4, 60));
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceTest, SubmitSpan) {
  Trace t("test", 64);
  EXPECT_EQ(t.first_submit(), 0);
  EXPECT_EQ(t.last_submit(), 0);
  t.add_job(make_job(1, 500, 4, 60));
  t.add_job(make_job(2, 900, 4, 60));
  EXPECT_EQ(t.first_submit(), 500);
  EXPECT_EQ(t.last_submit(), 900);
}

TEST(TraceTest, ConstructionRequiresPositiveSize) {
  EXPECT_THROW(Trace("bad", 0), Error);
  EXPECT_THROW(Trace("bad", -4), Error);
}

TEST(TraceStatsTest, SummaryNumbers) {
  Trace t("test", 100);
  t.add_job(make_job(1, 0, 10, 100, 20.0));    // 1000 node-s
  t.add_job(make_job(2, 50, 20, 200, 40.0));   // 4000 node-s, ends at 250
  const TraceStats s = compute_stats(t);
  EXPECT_EQ(s.job_count, 2u);
  EXPECT_EQ(s.span_begin, 0);
  EXPECT_EQ(s.span_end, 250);
  EXPECT_DOUBLE_EQ(s.nodes.mean(), 15.0);
  EXPECT_DOUBLE_EQ(s.runtime.mean(), 150.0);
  EXPECT_DOUBLE_EQ(s.power_per_node.mean(), 30.0);
  EXPECT_DOUBLE_EQ(s.offered_utilization, 5000.0 / (100.0 * 250.0));
}

TEST(TraceStatsTest, SizeDistributionBuckets) {
  Trace t("test", 64);
  t.add_job(make_job(1, 0, 1, 60));
  t.add_job(make_job(2, 1, 2, 60));
  t.add_job(make_job(3, 2, 3, 60));   // bucket "<=4"
  t.add_job(make_job(4, 3, 64, 60));  // bucket "<=64"
  const CategoricalHistogram h = size_distribution(t);
  EXPECT_EQ(h.category(0), "1");
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.25);
  EXPECT_EQ(h.category(1), "<=2");
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
  EXPECT_EQ(h.category(2), "<=4");
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.25);
  EXPECT_EQ(h.category(6), "<=64");
  EXPECT_DOUBLE_EQ(h.fraction(6), 0.25);
}

TEST(TraceStatsTest, MonthlyOfferedUtilization) {
  Trace t("test", 100);
  // Month 0: one job of 100 nodes x 1 day = 1/30 of month capacity.
  t.add_job(make_job(1, 0, 100, kSecondsPerDay));
  const auto util = monthly_offered_utilization(t, 2);
  EXPECT_NEAR(util[0], 1.0 / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(util[1], 0.0);
}

TEST(TraceStatsTest, PowerDistributionRange) {
  Trace t("test", 2048);
  t.add_job(make_job(1, 0, 1024, 60, 40.0));  // 40.96 kW/rack at 1024/rack
  t.add_job(make_job(2, 1, 1024, 60, 80.0));
  const Histogram h = power_distribution_kw_per_rack(t, 1024, 4);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
  EXPECT_GT(h.bin_weight(0), 0.0);
  EXPECT_GT(h.bin_weight(3), 0.0);
}

}  // namespace
}  // namespace esched::trace
