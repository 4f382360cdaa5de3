// Tests for the CSV/JSON result exporters.
#include "metrics/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/fcfs_policy.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::metrics {
namespace {

sim::SimResult small_result() {
  const trace::Trace month = trace::make_anl_bgp_like(1, 3);
  trace::Trace t(month.name(), month.system_nodes());
  for (std::size_t i = 0; i < 50; ++i) t.add_job(month[i]);
  power::assign_profiles(t, power::ProfileConfig{}, 3);
  power::OnOffPeakPricing pricing(0.03, 3.0);
  core::FcfsPolicy policy;
  return sim::simulate(t, pricing, policy);
}

TEST(ExportTest, JobsCsvHasHeaderAndAllRows) {
  const sim::SimResult r = small_result();
  std::ostringstream os;
  write_jobs_csv(os, r);
  const std::string out = os.str();
  EXPECT_EQ(out.substr(0, out.find('\n')),
            "id,user,submit,start,finish,wait,nodes,power_per_node");
  std::size_t lines = 0;
  for (const char ch : out) lines += (ch == '\n');
  EXPECT_EQ(lines, r.records.size() + 1);
}

TEST(ExportTest, DailyBillsCsvSumsToTotal) {
  const sim::SimResult r = small_result();
  std::ostringstream os;
  write_daily_bills_csv(os, r);
  std::istringstream in(os.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "day,bill");
  double total = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    total += std::stod(line.substr(comma + 1));
  }
  EXPECT_NEAR(total, r.total_bill, 1e-9);
}

TEST(ExportTest, CurvesCsvMatchesBinCount) {
  const sim::SimResult r = small_result();
  std::ostringstream os;
  write_daily_curves_csv(os, r);
  std::size_t lines = 0;
  for (const char ch : os.str()) lines += (ch == '\n');
  EXPECT_EQ(lines, r.power_curve.size() + 1);

  sim::SimResult no_curves = r;
  no_curves.power_curve.clear();
  no_curves.utilization_curve.clear();
  std::ostringstream os2;
  EXPECT_THROW(write_daily_curves_csv(os2, no_curves), Error);
}

TEST(ExportTest, SummaryJsonHasStableKeys) {
  const sim::SimResult r = small_result();
  std::ostringstream os;
  write_summary_json(os, r);
  const std::string json = os.str();
  for (const char* key :
       {"\"policy\"", "\"trace\"", "\"total_bill\"", "\"utilization\"",
        "\"mean_wait_seconds\"", "\"energy_on_peak_joules\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(ExportTest, JsonEscapesSpecialCharacters) {
  sim::SimResult r;
  r.policy_name = "has \"quotes\" and \\slashes\\";
  r.trace_name = "line\nbreak";
  std::ostringstream os;
  write_summary_json(os, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("has \\\"quotes\\\" and \\\\slashes\\\\"),
            std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

TEST(ExportTest, ExportAllWritesFiles) {
  const sim::SimResult r = small_result();
  const std::string prefix = "/tmp/esched_export_test";
  export_all(prefix, r);
  for (const char* suffix :
       {"_jobs.csv", "_daily.csv", "_curves.csv", "_summary.json"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_FALSE(first_line.empty()) << suffix;
    std::remove((prefix + suffix).c_str());
  }
}

TEST(ExportTest, ExportAllCreatesMissingParentDirectories) {
  // A prefix pointing into a not-yet-created results directory must
  // work: sweep drivers compose prefixes like out/run-3/cell-7 and the
  // export is the first thing to touch them.
  const sim::SimResult r = small_result();
  const std::string dir = ::testing::TempDir() + "esched-export-deep-" +
                          std::to_string(::getpid());
  const std::string prefix = dir + "/nested/run/cell";
  export_all(prefix, r);
  for (const char* suffix :
       {"_jobs.csv", "_daily.csv", "_curves.csv", "_summary.json"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::remove((prefix + suffix).c_str());
  }
  std::remove((dir + "/nested/run").c_str());
  std::remove((dir + "/nested").c_str());
  std::remove(dir.c_str());
}

TEST(ExportTest, ExportAllThrowsWithPathOnUnwritablePrefix) {
  const sim::SimResult r = small_result();
  // A path component that is a regular file makes the parent
  // uncreatable for any privilege level (root would simply create a
  // missing directory).
  const std::string file = ::testing::TempDir() + "esched-export-plug-" +
                           std::to_string(::getpid());
  { std::ofstream plug(file); }
  const std::string prefix = file + "/sub/out";
  try {
    export_all(prefix, r);
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    // The message must carry the failing path — "cannot write" without
    // saying what is the failure mode this test exists to prevent.
    EXPECT_NE(std::string(e.what()).find(prefix + "_jobs.csv"),
              std::string::npos)
        << e.what();
  }
  std::remove(file.c_str());
}

}  // namespace
}  // namespace esched::metrics
