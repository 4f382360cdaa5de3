// Tests for declarative sweep-cell specs (run/spec.hpp): every builder
// must be deterministic in the spec (that is the whole basis of the
// multi-process determinism contract), execute_job_spec must be
// bit-identical to hand-assembling the same cell in-process, and the
// by-name factories must reject unknown names loudly.
#include "run/spec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "obs/tracer.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "run/sweep.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::run {
namespace {

TEST(SpecTest, BuildTraceIsDeterministic) {
  TraceSpec spec;
  spec.source = "sdsc-blue";
  spec.months = 1;
  const trace::Trace a = build_trace(spec);
  const trace::Trace b = build_trace(spec);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  ASSERT_FALSE(a.jobs().empty());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].id, b.jobs()[i].id);
    EXPECT_EQ(a.jobs()[i].submit, b.jobs()[i].submit);
    EXPECT_EQ(a.jobs()[i].power_per_node, b.jobs()[i].power_per_node);
  }
}

TEST(SpecTest, BuildTraceMatchesHandAssembledCanonicalPipeline) {
  // The spec path must reproduce the bench loader's historical behavior:
  // named generator with its canonical seed, then the paper's synthetic
  // power draw with the canonical power seed.
  TraceSpec spec;
  spec.source = "sdsc-blue";
  spec.months = 1;
  spec.power_ratio = 3.0;
  const trace::Trace from_spec = build_trace(spec);

  trace::Trace by_hand = trace::make_sdsc_blue_like(/*months=*/1, 2001);
  power::ProfileConfig cfg;
  cfg.ratio = 3.0;
  power::assign_profiles(by_hand, cfg, 0xe5c4edULL);

  ASSERT_EQ(from_spec.jobs().size(), by_hand.jobs().size());
  for (std::size_t i = 0; i < by_hand.jobs().size(); ++i) {
    EXPECT_EQ(from_spec.jobs()[i].id, by_hand.jobs()[i].id);
    EXPECT_EQ(from_spec.jobs()[i].power_per_node,
              by_hand.jobs()[i].power_per_node);
  }
}

TEST(SpecTest, SeedsOverrideCanonicalDefaults) {
  TraceSpec canonical;
  canonical.source = "anl-bgp";
  canonical.months = 1;
  TraceSpec seeded = canonical;
  seeded.seed = 424242;
  const trace::Trace a = build_trace(canonical);
  const trace::Trace b = build_trace(seeded);
  // Different generator seed => different workload (in job count or in
  // the jobs themselves).
  bool differs = a.jobs().size() != b.jobs().size();
  for (std::size_t i = 0; !differs && i < a.jobs().size(); ++i) {
    differs = a.jobs()[i].submit != b.jobs()[i].submit ||
              a.jobs()[i].nodes != b.jobs()[i].nodes ||
              a.jobs()[i].runtime != b.jobs()[i].runtime;
  }
  EXPECT_TRUE(differs);
}

TEST(SpecTest, ExecuteJobSpecMatchesInProcessSimulation) {
  JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  spec.pricing.model = "paper";
  spec.pricing.ratio = 3.0;
  spec.policy.name = "greedy";
  spec.label = "greedy/sdsc-blue";
  const sim::SimResult from_spec = execute_job_spec(spec);

  const trace::Trace trace = build_trace(spec.trace);
  const auto tariff = power::make_paper_tariff(3.0);
  const auto policy = core::make_policy_by_name("greedy");
  const sim::SimResult by_hand =
      sim::simulate(trace, *tariff, *policy, sim::SimConfig{});

  EXPECT_TRUE(results_identical(from_spec, by_hand));
}

TEST(SpecTest, ByNameFactoriesRejectUnknownNames) {
  PolicySpec policy;
  policy.name = "no-such-policy";
  EXPECT_THROW(build_policy(policy), Error);

  PricingSpec pricing;
  pricing.model = "no-such-tariff";
  EXPECT_THROW(build_pricing(pricing), Error);

  TraceSpec trace;
  trace.source = "no-such-workload";
  EXPECT_THROW(build_trace(trace), Error);

  TraceSpec swf;
  swf.source = "swf";
  swf.swf_path = "/nonexistent/trace.swf";
  EXPECT_THROW(build_trace(swf), Error);
}

TEST(SpecTest, AllStandardNamesConstruct) {
  for (const char* name : {"fcfs", "greedy", "greedy-total", "knapsack"}) {
    PolicySpec spec;
    spec.name = name;
    EXPECT_NE(build_policy(spec), nullptr) << name;
  }
  for (const char* model : {"paper", "onoff", "flat"}) {
    PricingSpec spec;
    spec.model = model;
    EXPECT_NE(build_pricing(spec), nullptr) << model;
  }
}

JobSpec priced_cell(const char* policy, const char* model, double ratio) {
  JobSpec spec;
  spec.trace.months = 1;
  spec.pricing.model = model;
  spec.pricing.ratio = ratio;
  spec.policy.name = policy;
  spec.label = std::string(policy) + "/" + model + "/" + std::to_string(ratio);
  return spec;
}

TEST(SpecTest, KeysOfValidCellsAreUnchanged) {
  // Coordinator journals are keyed by cell_key: a valid cell's keys must
  // never change by a byte.
  const JobSpec spec = priced_cell("greedy", "paper", 4.0);
  const std::string share =
      "trace:sdsc-blue,,1,0,0x1.8p+1,0,0|policy:greedy|cfg:10,0x0p+0,000,0,"
      "1,96|sched:20,1,0,100,0|periods:onoff-paper-default";
  EXPECT_EQ(share_key(spec), share);
  EXPECT_EQ(cell_key(spec), share + "|price:0x1.eb851eb851eb8p-6,0x1p+2");
}

TEST(SpecTest, KeysRejectUnknownTariffNames) {
  // An unknown model must not alias a "paper" cell with the same prices:
  // the keys throw what building the tariff throws.
  const JobSpec bogus = priced_cell("fcfs", "bogus", 3.0);
  std::string built;
  try {
    build_pricing(bogus.pricing);
  } catch (const Error& e) {
    built = e.what();
  }
  ASSERT_NE(built.find("unknown pricing name \"bogus\""), std::string::npos);
  for (const auto& key : {share_key, cell_key}) {
    try {
      key(bogus);
      FAIL() << "a key accepted an unknown tariff";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), built);
    }
  }
  EXPECT_THROW(plan_groups({priced_cell("fcfs", "paper", 3.0), bogus}, true),
               Error);
}

TEST(SpecTest, PlanGroupsAppliesTheSharingRules) {
  obs::Tracer tracer;
  std::vector<JobSpec> sweep = {
      priced_cell("fcfs", "paper", 2.0),    // 0: leader of group 0
      priced_cell("greedy", "paper", 2.0),  // 1: leader of group 1
      priced_cell("fcfs", "paper", 4.0),    // 2: rebills group 0
      priced_cell("fcfs", "onoff", 4.0),    // 3: same cell as 2: copy
      priced_cell("fcfs", "flat", 2.0),     // 4: flat periods: group 2
      priced_cell("fcfs", "flat", 9.0),     // 5: flat ignores ratio: copy
      priced_cell("fcfs", "paper", 5.0),    // 6: traced: a group alone
  };
  sweep[6].config.tracer = &tracer;

  const std::vector<ShareGroup> groups = plan_groups(sweep, true);
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(groups[0].copies.size(), 1u);
  EXPECT_EQ(groups[0].copies[0].cell, 3u);
  EXPECT_EQ(groups[0].copies[0].member, 1u);
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{1}));
  EXPECT_EQ(groups[2].members, (std::vector<std::size_t>{4}));
  ASSERT_EQ(groups[2].copies.size(), 1u);
  EXPECT_EQ(groups[2].copies[0].cell, 5u);
  EXPECT_EQ(groups[3].members, (std::vector<std::size_t>{6}));

  // Off, or without a spec, every cell is a group of its own.
  EXPECT_EQ(plan_groups(sweep, false).size(), sweep.size());
  const std::vector<const JobSpec*> unshared(sweep.size(), nullptr);
  EXPECT_EQ(plan_groups(unshared, true).size(), sweep.size());

  // A full group's next sibling leads a new group; copies ride with the
  // member they copy and do not count to the cap.
  const std::vector<ShareGroup> capped = plan_groups(sweep, true, 1);
  ASSERT_EQ(capped.size(), 5u);
  EXPECT_EQ(capped[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(capped[2].members, (std::vector<std::size_t>{2}));
  ASSERT_EQ(capped[2].copies.size(), 1u);
  EXPECT_EQ(capped[2].copies[0].cell, 3u);
  EXPECT_EQ(capped[2].copies[0].member, 0u);
}

TEST(SpecTest, ExecuteGroupMatchesSimulatingEveryMember) {
  const std::vector<JobSpec> members = {priced_cell("greedy", "paper", 2.0),
                                        priced_cell("greedy", "paper", 3.0),
                                        priced_cell("greedy", "onoff", 5.0)};
  TraceCache traces;
  const std::vector<MemberOutcome> out = execute_group(members, 0, traces);
  ASSERT_EQ(out.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    EXPECT_TRUE(results_identical(out[i].result, execute_job_spec(members[i])))
        << members[i].label;
  }
}

TEST(SpecTest, ExecuteGroupFailsOnlyTheMemberWithABadTariff) {
  // The bad member leads: the next valid tariff drives the simulation.
  std::vector<JobSpec> members = {priced_cell("fcfs", "paper", 0.5),
                                  priced_cell("fcfs", "paper", 2.0),
                                  priced_cell("fcfs", "paper", 3.0)};
  TraceCache traces;
  const std::vector<MemberOutcome> out = execute_group(members, 0, traces);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0].error.find("ratio must be >= 1"), std::string::npos)
      << out[0].error;
  for (std::size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    EXPECT_TRUE(results_identical(out[i].result, execute_job_spec(members[i])));
  }

  // A shared failure (here: the policy) fails every member alike.
  for (JobSpec& spec : members) spec.policy.name = "no-such-policy";
  for (const MemberOutcome& o : execute_group(members, 0, traces)) {
    EXPECT_FALSE(o.ok());
  }
  EXPECT_THROW(execute_job_spec(members[1]), Error);
}

}  // namespace
}  // namespace esched::run
