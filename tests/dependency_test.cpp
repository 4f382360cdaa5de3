// Tests for SWF workflow dependencies (preceding job + think time).
#include <gtest/gtest.h>

#include <sstream>

#include "core/fcfs_policy.hpp"
#include "oracles.hpp"
#include "power/pricing.hpp"
#include "sim/simulator.hpp"
#include "trace/swf.hpp"
#include "trace/trace.hpp"

namespace esched::sim {
namespace {

trace::Job make_job(JobId id, TimeSec submit, DurationSec runtime,
                    JobId preceding = 0, DurationSec think = 0) {
  trace::Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = 2;
  j.runtime = runtime;
  j.walltime = runtime;
  j.power_per_node = 30.0;
  j.preceding = preceding;
  j.think_time = think;
  return j;
}

TEST(DependencyTest, DependentWaitsForPredecessorPlusThinkTime) {
  trace::Trace t("dep", 10);
  t.add_job(make_job(1, 0, 500));
  t.add_job(make_job(2, 0, 100, /*preceding=*/1, /*think=*/60));
  power::FlatPricing pricing(0.1);
  core::FcfsPolicy policy;
  SimConfig cfg;
  cfg.honor_dependencies = true;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records[0].start, 0);
  EXPECT_EQ(r.records[0].finish, 500);
  // Release at 500 + 60 = 560 (tick boundary); starts right there.
  EXPECT_EQ(r.records[1].submit, 560);
  EXPECT_EQ(r.records[1].start, 560);
  EXPECT_NO_THROW(metrics::validate_result(r));
}

TEST(DependencyTest, NominalSubmitActsAsLowerBound) {
  trace::Trace t("dep2", 10);
  t.add_job(make_job(1, 0, 100));
  // Nominal submit far after the predecessor's completion.
  t.add_job(make_job(2, 5000, 100, 1, 0));
  power::FlatPricing pricing(0.1);
  core::FcfsPolicy policy;
  SimConfig cfg;
  cfg.honor_dependencies = true;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records[1].submit, 5000);
  EXPECT_EQ(r.records[1].start, 5000);
}

TEST(DependencyTest, ChainsExecuteInOrder) {
  trace::Trace t("chain", 10);
  t.add_job(make_job(1, 0, 100));
  t.add_job(make_job(2, 0, 100, 1));
  t.add_job(make_job(3, 0, 100, 2));
  power::FlatPricing pricing(0.1);
  core::FcfsPolicy policy;
  SimConfig cfg;
  cfg.honor_dependencies = true;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records[0].start, 0);
  EXPECT_EQ(r.records[1].start, 100);
  EXPECT_EQ(r.records[2].start, 200);
}

TEST(DependencyTest, IgnoredByDefaultAndForDanglingIds) {
  trace::Trace t("nodep", 10);
  t.add_job(make_job(1, 0, 500));
  t.add_job(make_job(2, 0, 100, 1, 60));
  power::FlatPricing pricing(0.1);
  core::FcfsPolicy policy;
  // Default: dependencies off -> both run concurrently (machine fits).
  const SimResult off = simulate(t, pricing, policy);
  EXPECT_EQ(off.records[1].start, 0);

  // Dangling predecessor id: honored flag on, but no such job -> run.
  trace::Trace t2("dangle", 10);
  t2.add_job(make_job(1, 0, 500));
  t2.add_job(make_job(2, 0, 100, /*preceding=*/999, 60));
  SimConfig cfg;
  cfg.honor_dependencies = true;
  core::FcfsPolicy policy2;
  const SimResult r2 = simulate(t2, pricing, policy2, cfg);
  EXPECT_EQ(r2.records[1].start, 0);
}

TEST(DependencyTest, ForwardReferencesAreIgnored) {
  // Predecessor appears later in the trace: dependency dropped (cycle
  // safety by construction).
  trace::Trace t("fwd", 10);
  t.add_job(make_job(2, 0, 100, /*preceding=*/1));  // job 1 comes later
  t.add_job(make_job(1, 50, 100));
  power::FlatPricing pricing(0.1);
  core::FcfsPolicy policy;
  SimConfig cfg;
  cfg.honor_dependencies = true;
  const SimResult r = simulate(t, pricing, policy, cfg);
  EXPECT_EQ(r.records[0].start, 0);  // ran immediately despite the field
}

TEST(DependencySwfTest, FieldsRoundTrip) {
  trace::Trace t("swf", 10);
  t.add_job(make_job(1, 0, 100));
  t.add_job(make_job(2, 10, 100, 1, 300));
  std::ostringstream out;
  trace::swf::save(out, t, false);
  std::istringstream in(out.str());
  const trace::Trace back = trace::swf::load(in, "rt");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].preceding, 0);
  EXPECT_EQ(back[0].think_time, 0);
  EXPECT_EQ(back[1].preceding, 1);
  EXPECT_EQ(back[1].think_time, 300);
}

}  // namespace
}  // namespace esched::sim
