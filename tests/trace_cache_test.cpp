// Tests for run::TraceCache, the one-trace cache esched-worker keeps for
// one sweep scope: a hit is the kept object, a new scope or another trace
// builds anew, a replaced trace lives on for whoever still holds it — and
// a group executed from a warm cache is bit-identical to one that built
// its trace cold. Runs under ASan+UBSan, where a trace used after its
// replacement would be caught.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "meta/spec.hpp"
#include "obs/registry.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"

namespace esched::run {
namespace {

TraceSpec one_month(std::uint64_t seed) {
  TraceSpec spec;
  spec.source = "sdsc-blue";
  spec.months = 1;
  spec.seed = seed;
  return spec;
}

/// Counter deltas over one test, with counters on for its duration.
class CounterScope {
 public:
  CounterScope() : was_on_(obs::counters_enabled()) {
    obs::set_counters_enabled(true);
    builds_ = value("run.trace_builds");
    hits_ = value("run.trace_cache_hits");
  }
  ~CounterScope() { obs::set_counters_enabled(was_on_); }

  std::uint64_t builds() const { return value("run.trace_builds") - builds_; }
  std::uint64_t hits() const { return value("run.trace_cache_hits") - hits_; }

 private:
  static std::uint64_t value(const char* name) {
    return obs::Registry::global().counter(name).value();
  }

  bool was_on_;
  std::uint64_t builds_ = 0;
  std::uint64_t hits_ = 0;
};

TEST(TraceCacheTest, HitReturnsTheSameObject) {
  CounterScope counters;
  TraceCache cache;
  const auto first = cache.get(7, one_month(1));
  const auto again = cache.get(7, one_month(1));
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(counters.builds(), 1u);
  EXPECT_EQ(counters.hits(), 1u);
}

TEST(TraceCacheTest, NewScopeBuildsAgain) {
  CounterScope counters;
  TraceCache cache;
  const auto a = cache.get(1, one_month(1));

  // Another sweep: nothing of the last one is reused, even the trace it
  // holds.
  const auto rebuilt = cache.get(2, one_month(1));
  EXPECT_NE(rebuilt.get(), a.get());
  EXPECT_EQ(cache.get(2, one_month(1)).get(), rebuilt.get());
  EXPECT_EQ(counters.builds(), 2u);
  EXPECT_EQ(counters.hits(), 1u);
}

TEST(TraceCacheTest, AnotherTraceReplacesTheKeptOne) {
  CounterScope counters;
  TraceCache cache;
  const auto a = cache.get(3, one_month(1));
  const auto b = cache.get(3, one_month(2));
  EXPECT_NE(b.get(), a.get());
  EXPECT_EQ(cache.get(3, one_month(2)).get(), b.get());
  // The replaced trace lives on for whoever still holds it, and asking
  // for it again builds it anew.
  EXPECT_FALSE(a->empty());
  EXPECT_NE(cache.get(3, one_month(1)).get(), a.get());
  EXPECT_EQ(counters.builds(), 3u);
  EXPECT_EQ(counters.hits(), 1u);
}

/// `members` executed from a warm cache (a second pass, same scope) and
/// from a cold one: one build between them, and the same bytes.
void expect_warm_equals_cold(const std::vector<JobSpec>& members) {
  CounterScope counters;
  TraceCache warm;
  execute_group(members, 5, warm);
  const std::vector<MemberOutcome> hot = execute_group(members, 5, warm);
  EXPECT_EQ(counters.builds(), 1u);
  EXPECT_EQ(counters.hits(), 1u);
  TraceCache cold;
  const std::vector<MemberOutcome> fresh = execute_group(members, 5, cold);
  ASSERT_EQ(hot.size(), members.size());
  ASSERT_EQ(fresh.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    ASSERT_TRUE(hot[i].ok()) << hot[i].error;
    ASSERT_TRUE(fresh[i].ok()) << fresh[i].error;
    EXPECT_TRUE(results_identical(hot[i].result, fresh[i].result))
        << "member " << i;
  }
}

TEST(TraceCacheTest, WarmSingleSiteGroupMatchesColdBuild) {
  std::vector<JobSpec> members;
  for (const double ratio : {2.0, 3.0, 5.0}) {
    JobSpec spec;
    spec.trace = one_month(0);
    spec.policy.name = "greedy";
    spec.pricing.ratio = ratio;
    members.push_back(spec);
  }
  expect_warm_equals_cold(members);
}

TEST(TraceCacheTest, WarmScenarioGroupMatchesColdBuild) {
  meta::MetaSpec scenario;
  scenario.router = "cheapest-now";
  scenario.move_penalty = 600;
  for (const char* name : {"west", "east"}) {
    meta::CenterSpec center;
    center.name = name;
    center.policy.name = "fcfs";
    scenario.centers.push_back(center);
  }
  scenario.centers[1].nodes = 32;
  scenario.centers[1].pricing.tz_offset_min = 720;
  const auto shared = std::make_shared<const meta::MetaSpec>(scenario);
  std::vector<JobSpec> members;
  for (std::uint32_t c = 0; c < 2; ++c) {
    JobSpec spec;
    spec.trace = one_month(0);
    spec.pricing = scenario.centers[c].pricing;
    spec.policy = scenario.centers[c].policy;
    spec.meta = shared;
    spec.meta_center = c;
    members.push_back(spec);
  }
  expect_warm_equals_cold(members);
}

}  // namespace
}  // namespace esched::run
