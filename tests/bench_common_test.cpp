// Tests for the shared bench machinery (bench/common.{hpp,cpp}) —
// especially the CLI contract: flag validation, the "--power-ratio
// given explicitly" tracking that replaced the fragile `ratio != 3.0`
// double-compare sentinel, and run_sweep running the plane its flags
// name or failing with that plane's error.
#include "common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "fleet_support.hpp"
#include "net/socket.hpp"
#include "power/facility.hpp"
#include "run/sweep.hpp"
#include "trace/swf.hpp"
#include "util/error.hpp"

namespace esched::bench {
namespace {

Options parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return parse_options(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptionsTest, DefaultsLeavePowerRatioImplicit) {
  const Options opt = parse({});
  EXPECT_DOUBLE_EQ(opt.power_ratio, 3.0);
  EXPECT_FALSE(opt.power_ratio_given);
  EXPECT_EQ(opt.jobs, 0u);
}

TEST(BenchOptionsTest, ExplicitPowerRatioIsTrackedEvenAtDefaultValue) {
  const Options opt = parse({"--power-ratio", "3.0"});
  EXPECT_DOUBLE_EQ(opt.power_ratio, 3.0);
  EXPECT_TRUE(opt.power_ratio_given);
}

TEST(BenchOptionsTest, ParsesJobs) {
  EXPECT_EQ(parse({"--jobs", "8"}).jobs, 8u);
}

TEST(BenchOptionsTest, RejectsZeroTickAndWindowAtParseTime) {
  EXPECT_THROW(parse({"--tick", "0"}), Error);
  EXPECT_THROW(parse({"--window", "0"}), Error);
  EXPECT_THROW(parse({"--months", "0"}), Error);
  EXPECT_NO_THROW(parse({"--tick", "1", "--window", "1"}));
}

TEST(BenchOptionsTest, RejectsUnknownIsolateModesNamingAcceptedOnes) {
  EXPECT_EQ(parse({}).isolate, "off");
  EXPECT_EQ(parse({"--isolate", "proc"}).isolate, "proc");
  // tcp alone is refused (TcpWithoutAgentsIsRejectedNamingTheFlag), so
  // it is accepted here with an agent list.
  EXPECT_EQ(parse({"--isolate", "tcp", "--agents", "127.0.0.1:9555"}).isolate,
            "tcp");
  try {
    parse({"--isolate", "bogus"});
    FAIL() << "expected unknown --isolate value to be rejected";
  } catch (const Error& e) {
    // The rejection must name the offender and list the accepted values.
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("\"off\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"proc\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"tcp\""), std::string::npos) << what;
  }
}

TEST(BenchOptionsTest, TcpWithoutAgentsIsRejectedNamingTheFlag) {
  ::unsetenv("ESCHED_AGENTS");
  try {
    parse({"--isolate", "tcp"});
    FAIL() << "expected --isolate=tcp without agents to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--agents"), std::string::npos)
        << e.what();
  }
  // ESCHED_AGENTS names them as well as the flag does.
  const test::ScopedEnv agents("ESCHED_AGENTS", "127.0.0.1:7777");
  EXPECT_EQ(parse({"--isolate", "tcp"}).agents, "127.0.0.1:7777");
}

TEST(BenchOptionsTest, ValidatesAgentListAtParseTime) {
  ::unsetenv("ESCHED_AGENTS");
  EXPECT_TRUE(parse({}).agents.empty());
  EXPECT_EQ(parse({"--agents", "127.0.0.1:9555,node1:9556"}).agents,
            "127.0.0.1:9555,node1:9556");
  // A typo'd address must fail at parse time (naming the accepted
  // forms), not surface mid-sweep as an unreachable agent.
  try {
    parse({"--agents", "node1"});
    FAIL() << "expected malformed --agents entry to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("accepted forms"),
              std::string::npos)
        << e.what();
  }
  // ESCHED_AGENTS is the flagless default; the flag wins when both exist.
  ::setenv("ESCHED_AGENTS", "127.0.0.1:7777", 1);
  EXPECT_EQ(parse({}).agents, "127.0.0.1:7777");
  EXPECT_EQ(parse({"--agents", "127.0.0.1:8888"}).agents, "127.0.0.1:8888");
  ::unsetenv("ESCHED_AGENTS");
}

TEST(BenchOptionsTest, ObservabilityIsOffByDefault) {
  const Options opt = parse({});
  EXPECT_TRUE(opt.trace_out.empty());
  EXPECT_TRUE(opt.metrics_out.empty());
  EXPECT_FALSE(opt.progress);
  EXPECT_EQ(opt.tracer, nullptr);
  EXPECT_EQ(make_sim_config(opt).tracer, nullptr);
}

TEST(BenchOptionsTest, MetricsOutEnablesCountersAndProgressParses) {
  const bool was_enabled = obs::counters_enabled();
  const Options opt =
      parse({"--metrics-out", "/tmp/bench_common_m.json", "--progress"});
  EXPECT_EQ(opt.metrics_out, "/tmp/bench_common_m.json");
  EXPECT_TRUE(opt.progress);
  EXPECT_TRUE(obs::counters_enabled());  // parse's documented side effect
  obs::set_counters_enabled(was_enabled);
}

TEST(BenchOptionsTest, TraceOutOpensSharedTracerAndWiresSimConfig) {
  const std::string path = ::testing::TempDir() + "bench_common_t.json";
  {
    const Options opt = parse({"--trace-out", path.c_str()});
    ASSERT_NE(opt.tracer, nullptr);
    EXPECT_TRUE(opt.tracer->enabled());
    EXPECT_EQ(opt.tracer->path(), path);
    // Copies share the one tracer; SimConfigs built from any copy point
    // at it.
    const Options copy = opt;
    EXPECT_EQ(copy.tracer.get(), opt.tracer.get());
    EXPECT_EQ(make_sim_config(copy).tracer, opt.tracer.get());
  }  // last copy gone -> tracer closed, files finalized
  std::ifstream chrome(path);
  EXPECT_TRUE(chrome.good());
  std::ifstream jsonl(path + obs::Tracer::kDecisionLogSuffix);
  EXPECT_TRUE(jsonl.good());
  std::remove(path.c_str());
  std::remove((path + obs::Tracer::kDecisionLogSuffix).c_str());
}

TEST(BenchOptionsTest, EschedTraceEnvIsTheFlaglessTraceOut) {
  const std::string path = ::testing::TempDir() + "bench_common_env.json";
  ::setenv("ESCHED_TRACE", path.c_str(), 1);
  {
    const Options opt = parse({});
    EXPECT_EQ(opt.trace_out, path);
    ASSERT_NE(opt.tracer, nullptr);
    // An explicit --trace-out wins over the environment.
    const std::string flag_path =
        ::testing::TempDir() + "bench_common_flag.json";
    const Options explicit_opt = parse({"--trace-out", flag_path.c_str()});
    EXPECT_EQ(explicit_opt.trace_out, flag_path);
    std::remove(flag_path.c_str());
    std::remove(
        (flag_path + obs::Tracer::kDecisionLogSuffix).c_str());
  }
  ::unsetenv("ESCHED_TRACE");
  std::remove(path.c_str());
  std::remove((path + obs::Tracer::kDecisionLogSuffix).c_str());
}

TEST(BenchOptionsTest, TraceOutFailureNamesThePath) {
  EXPECT_THROW(parse({"--trace-out", "/nonexistent-dir-esched/t.json"}),
               Error);
}

class LoadWorkloadPowerColumnTest : public ::testing::Test {
 protected:
  // A PowerColumn SWF trace whose real profiles (10 and 100 W/node) are
  // NOT at the paper's 1:3 shape, so rescaling is observable.
  void SetUp() override {
    trace::Trace t("power-swf", 64);
    for (int i = 0; i < 2; ++i) {
      trace::Job j;
      j.id = i + 1;
      j.submit = i * 60;
      j.nodes = 8;
      j.runtime = 600;
      j.walltime = 900;
      j.power_per_node = i == 0 ? 10.0 : 100.0;
      j.user = 1;
      t.add_job(j);
    }
    path_ = ::testing::TempDir() + "bench_common_power.swf";
    trace::swf::save_file(path_, t, /*with_power_column=*/true);
  }

  std::string path_;
};

TEST_F(LoadWorkloadPowerColumnTest, DefaultRatioKeepsRealProfiles) {
  Options opt;
  opt.swf_path = path_;  // power_ratio 3.0 but not explicitly given
  const trace::Trace t = load_workload(Workload::kSdscBlue, opt);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0].power_per_node, 10.0);
  EXPECT_DOUBLE_EQ(t[1].power_per_node, 100.0);
}

TEST_F(LoadWorkloadPowerColumnTest, ExplicitDefaultRatioRescales) {
  // `--power-ratio 3.0` passed explicitly must rescale the real profiles
  // to a 1:3 span — the old `ratio != 3.0` sentinel silently ignored it.
  Options opt;
  opt.swf_path = path_;
  opt.power_ratio = 3.0;
  opt.power_ratio_given = true;
  const trace::Trace t = load_workload(Workload::kSdscBlue, opt);
  ASSERT_EQ(t.size(), 2u);
  const double lo = std::min(t[0].power_per_node, t[1].power_per_node);
  const double hi = std::max(t[0].power_per_node, t[1].power_per_node);
  EXPECT_NE(hi, 100.0);  // actually rescaled
  EXPECT_NEAR(hi / lo, 3.0, 1e-9);
}

TEST_F(LoadWorkloadPowerColumnTest, NonDefaultRatioStillRescales) {
  Options opt;
  opt.swf_path = path_;
  opt.power_ratio = 4.0;
  opt.power_ratio_given = true;
  const trace::Trace t = load_workload(Workload::kSdscBlue, opt);
  const double lo = std::min(t[0].power_per_node, t[1].power_per_node);
  const double hi = std::max(t[0].power_per_node, t[1].power_per_node);
  EXPECT_NEAR(hi / lo, 4.0, 1e-9);
}

// run_sweep on the plane the flags name. The sweep is the three standard
// policies over a small SWF trace, so its cells carry specs that any
// worker could rebuild; the failing planes throw before any cell runs.
class BenchRunSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Trace t("tiny-swf", 64);
    for (int i = 0; i < 8; ++i) {
      trace::Job j;
      j.id = i + 1;
      j.submit = i * 3600;
      j.nodes = 8 * (1 + i % 4);
      j.runtime = 1800 + 600 * (i % 3);
      j.walltime = 2 * j.runtime;
      j.power_per_node = 20.0 + 10.0 * (i % 3);
      j.user = 1 + i % 2;
      t.add_job(j);
    }
    path_ = ::testing::TempDir() + "bench_common_run_sweep.swf";
    trace::swf::save_file(path_, t, /*with_power_column=*/true);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Options options(std::vector<const char*> flags) const {
    flags.insert(flags.begin(), {"--swf", path_.c_str()});
    return parse(flags);
  }

  /// run_all_policies' spec-carrying sweep under `opt`.
  std::vector<sim::SimResult> run_policies(
      const Options& opt,
      const power::FacilityModel* facility = nullptr) const {
    const trace::Trace trace = load_workload(Workload::kSdscBlue, opt);
    const auto tariff = make_tariff(opt);
    sim::SimConfig config = make_sim_config(opt);
    config.facility_model = facility;
    return run_all_policies(Workload::kSdscBlue, trace, *tariff, config,
                            opt);
  }

  /// run_policies() must throw an esched::Error whose text contains
  /// `expected`.
  void expect_plane_error(const Options& opt,
                          const std::string& expected) const {
    try {
      run_policies(opt);
      FAIL() << "expected the named plane to fail, not to run another one";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }

  /// A loopback port nothing listens on: bind port 0, read, close.
  static std::string closed_address() {
    const net::Fd probe = net::listen_tcp("127.0.0.1", 0);
    return "127.0.0.1:" + std::to_string(net::local_port(probe.get()));
  }

  std::string path_;
};

TEST_F(BenchRunSweepTest, UnreachableCoordinatorFailsNamingIt) {
  const std::string addr = closed_address();
  expect_plane_error(options({"--coordinator", addr.c_str()}), addr);
}

TEST_F(BenchRunSweepTest, UnreachableAgentsFailTheTcpPlane) {
  const std::string addr = closed_address();
  expect_plane_error(
      options({"--isolate", "tcp", "--agents", addr.c_str()}),
      "no usable agents remain");
}

TEST_F(BenchRunSweepTest, MissingWorkerBinaryFailsTheProcPlane) {
  // ESCHED_WORKER names a file that exists but cannot be executed.
  const std::string worker = ::testing::TempDir() + "bench_common_worker";
  std::ofstream(worker) << "not a program\n";
  const test::ScopedEnv env("ESCHED_WORKER", worker);
  expect_plane_error(options({"--isolate", "proc"}),
                     "esched-worker binary not found");
  std::remove(worker.c_str());
}

TEST_F(BenchRunSweepTest, FacilitySweepRunsInProcessUnderAnyPlane) {
  // A facility model is a process-local pointer, so its cells carry no
  // spec: the sweep runs in-process even under --isolate=proc.
  const power::ConstantPue pue(1.5);
  const std::vector<sim::SimResult> off = run_policies(options({}), &pue);
  const std::vector<sim::SimResult> proc =
      run_policies(options({"--isolate", "proc"}), &pue);
  ASSERT_EQ(off.size(), 3u);
  ASSERT_EQ(proc.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_TRUE(run::results_identical(off[i], proc[i])) << "cell " << i;
  }
}

}  // namespace
}  // namespace esched::bench
