// Tests for the synthetic workload generators: determinism and statistical
// fidelity to the paper's trace characteristics (DESIGN.md §4).
#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "oracles.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace esched::trace {
namespace {

TEST(SyntheticTest, DeterministicForSameSeed) {
  const Trace a = make_anl_bgp_like(2, 77);
  const Trace b = make_anl_bgp_like(2, 77);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].submit, b[i].submit);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
    EXPECT_EQ(a[i].walltime, b[i].walltime);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  const Trace a = make_anl_bgp_like(1, 1);
  const Trace b = make_anl_bgp_like(1, 2);
  // Same statistical law, different realisations.
  bool any_diff = a.size() != b.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i)
    any_diff = a[i].submit != b[i].submit || a[i].nodes != b[i].nodes;
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, AnlSizeMixMatchesPaper) {
  const Trace t = make_anl_bgp_like(5, 42);
  EXPECT_EQ(t.system_nodes(), 2048);
  EXPECT_GT(t.size(), 5000u);
  std::size_t n512 = 0;
  std::size_t n1024 = 0;
  std::size_t n2048 = 0;
  for (const Job& j : t.jobs()) {
    n512 += (j.nodes == 512);
    n1024 += (j.nodes == 1024);
    n2048 += (j.nodes == 2048);
  }
  const auto total = static_cast<double>(t.size());
  // Paper Fig. 4A: 38% / 19% / 8%.
  EXPECT_NEAR(static_cast<double>(n512) / total, 0.38, 0.03);
  EXPECT_NEAR(static_cast<double>(n1024) / total, 0.19, 0.03);
  EXPECT_NEAR(static_cast<double>(n2048) / total, 0.08, 0.02);
}

TEST(SyntheticTest, SdscSizeMixMatchesPaper) {
  const Trace t = make_sdsc_blue_like(5, 42);
  EXPECT_EQ(t.system_nodes(), 1152);
  EXPECT_GT(t.size(), 10000u);
  std::size_t below32 = 0;
  for (const Job& j : t.jobs()) below32 += (j.nodes < 32);
  // Paper Fig. 4B: 71% of jobs below 32 nodes.
  EXPECT_NEAR(static_cast<double>(below32) / static_cast<double>(t.size()),
              0.71, 0.04);
}

TEST(SyntheticTest, OfferedUtilizationTracksTargets) {
  const Trace t = make_anl_bgp_like(5, 11);
  const auto util = monthly_offered_utilization(t, 5);
  // Paper: month utilizations sweep 39%-88%; we target
  // {0.45, 0.62, 0.88, 0.70, 0.39} with Monte-Carlo calibration, so allow
  // a generous band.
  const double target[5] = {0.45, 0.62, 0.88, 0.70, 0.39};
  for (std::size_t m = 0; m < 5; ++m) {
    EXPECT_NEAR(util[m], target[m], 0.12)
        << "month " << m << " offered=" << util[m];
  }
}

TEST(SyntheticTest, JobsAreValidAndSorted) {
  const Trace t = make_sdsc_blue_like(2, 5);
  t.validate();
  for (const Job& j : t.jobs()) {
    EXPECT_GE(j.walltime, j.runtime);
    EXPECT_GE(j.runtime, 60);
    EXPECT_LE(j.runtime, 36 * kSecondsPerHour);
  }
}

TEST(SyntheticTest, GeneratorValidatesConfig) {
  SyntheticConfig cfg;
  cfg.size_classes.clear();
  EXPECT_THROW(generate(cfg, 1), Error);

  cfg.size_classes = {{4, 1.0, 600.0, 1.0}};
  cfg.monthly_utilization.clear();
  EXPECT_THROW(generate(cfg, 1), Error);

  cfg.monthly_utilization = {0.5};
  cfg.size_classes = {{4096, 1.0, 600.0, 1.0}};  // bigger than machine
  cfg.system_nodes = 1024;
  EXPECT_THROW(generate(cfg, 1), Error);

  cfg.size_classes = {{4, 1.0, 600.0, 1.0}};
  cfg.walltime_factor_lo = 0.5;  // < 1
  EXPECT_THROW(generate(cfg, 1), Error);
}

TEST(SyntheticTest, DiurnalProfileShiftsLoadIntoDaytime) {
  SyntheticConfig cfg;
  cfg.system_nodes = 1024;
  cfg.monthly_utilization = {0.6};
  cfg.size_classes = {{16, 1.0, 1800.0, 1.0}};
  cfg.diurnal = default_diurnal_profile();
  cfg.weekend_factor = 1.0;
  const Trace t = generate(cfg, 9);
  std::size_t daytime = 0;
  for (const Job& j : t.jobs()) {
    const auto hour = (j.submit / kSecondsPerHour) % 24;
    daytime += (hour >= 8 && hour < 20);
  }
  // Half the day carries clearly more than half the submissions.
  EXPECT_GT(static_cast<double>(daytime) / static_cast<double>(t.size()),
            0.6);
}

TEST(MiraTest, StructureMatchesCaseStudy) {
  const Trace t = make_mira_like();
  EXPECT_EQ(t.size(), 3333u);
  EXPECT_EQ(t.system_nodes(), 48 * 1024);
  t.validate();

  const TimeSec split = kSecondsPerMonth / 2;
  RunningStats first_half;
  RunningStats second_half;
  std::size_t single_rack_second_half = 0;
  std::size_t second_half_count = 0;
  for (const Job& j : t.jobs()) {
    EXPECT_EQ(j.nodes % 1024, 0) << "Mira jobs are rack-granular";
    // Fig. 1: per-rack power within ~40-90 kW.
    const double kw = j.power_per_node * 1024.0 / 1000.0;
    EXPECT_GE(kw, 40.0);
    EXPECT_LE(kw, 90.0);
    if (j.submit < split) {
      first_half.add(static_cast<double>(j.nodes));
    } else {
      second_half.add(static_cast<double>(j.nodes));
      ++second_half_count;
      single_rack_second_half += (j.nodes == 1024);
    }
  }
  // Acceptance-testing half: large jobs. Early-science half: mostly single
  // rack (paper: "most jobs are small sized such as single rack").
  EXPECT_GT(first_half.mean(), 8.0 * 1024.0);
  EXPECT_LT(second_half.mean(), 2.5 * 1024.0);
  EXPECT_GT(static_cast<double>(single_rack_second_half) /
                static_cast<double>(second_half_count),
            0.7);
}

TEST(MiraTest, JobOrderDigestIsPinned) {
  // make_mira_like appends each phase's jobs at random submits, so every
  // job takes add_job's out-of-order path. FNV-1a 64 over each job's
  // (id, submit, nodes, runtime, walltime), recorded when add_job still
  // re-sorted the whole trace per out-of-order append.
  const Trace t = make_mira_like();
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Job& j : t.jobs()) {
    mix(j.id);
    mix(j.submit);
    mix(j.nodes);
    mix(j.runtime);
    mix(j.walltime);
  }
  EXPECT_EQ(t.size(), 3333u);
  EXPECT_EQ(h, 0x84b5f8306ea498faull);
}

TEST(MiraTest, ConfigKnobsRespected) {
  MiraConfig mc;
  mc.racks = 8;
  mc.nodes_per_rack = 512;
  mc.job_count = 100;
  mc.acceptance_fraction = 0.0;  // all early-science
  const Trace t = make_mira_like(mc, 3);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.system_nodes(), 8 * 512);
  for (const Job& j : t.jobs()) EXPECT_EQ(j.nodes % 512, 0);
}

TEST(MiraTest, RejectsBadConfig) {
  MiraConfig mc;
  mc.racks = 0;
  EXPECT_THROW(make_mira_like(mc, 1), Error);
  mc = MiraConfig{};
  mc.acceptance_fraction = 1.5;
  EXPECT_THROW(make_mira_like(mc, 1), Error);
  mc = MiraConfig{};
  mc.min_kw_per_rack = 90.0;
  mc.max_kw_per_rack = 40.0;
  EXPECT_THROW(make_mira_like(mc, 1), Error);
}

}  // namespace
}  // namespace esched::trace
