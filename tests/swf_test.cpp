// Tests for the Standard Workload Format reader/writer.
#include "trace/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace esched::trace::swf {
namespace {

Job make_job(JobId id, TimeSec submit, NodeCount nodes, DurationSec runtime,
             Watts power = 0.0) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.nodes = nodes;
  j.runtime = runtime;
  j.walltime = runtime + 300;
  j.power_per_node = power;
  j.user = 7;
  return j;
}

TEST(SwfTest, ParsesMinimalFile) {
  std::istringstream in(
      "; MaxNodes: 128\n"
      "\n"
      "; some comment\n"
      "1 0 -1 3600 16 -1 -1 16 7200 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "2 60 -1 600 -1 -1 -1 32 900 -1 1 4 -1 -1 -1 -1 -1 -1\n");
  const Trace t = load(in, "mini");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.system_nodes(), 128);
  EXPECT_EQ(t[0].id, 1);
  EXPECT_EQ(t[0].submit, 0);
  EXPECT_EQ(t[0].runtime, 3600);
  EXPECT_EQ(t[0].nodes, 16);
  EXPECT_EQ(t[0].walltime, 7200);
  EXPECT_EQ(t[0].user, 3);
  EXPECT_EQ(t[1].nodes, 32);  // requested procs used directly
}

TEST(SwfTest, MaxProcsFallback) {
  std::istringstream in(
      "; MaxProcs: 64\n"
      "1 0 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  const Trace t = load(in, "t");
  EXPECT_EQ(t.system_nodes(), 64);
}

TEST(SwfTest, MissingSystemSizeThrowsUnlessDefaulted) {
  std::istringstream in("1 0 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  EXPECT_THROW(load(in, "t"), Error);
  std::istringstream in2("1 0 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  LoadOptions opt;
  opt.default_system_nodes = 256;
  EXPECT_EQ(load(in2, "t", opt).system_nodes(), 256);
}

TEST(SwfTest, SkipsFailedJobsWhenCompletedOnly) {
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "2 1 -1 60 8 -1 -1 8 60 -1 0 0 -1 -1 -1 -1 -1 -1\n"   // failed
      "3 2 -1 60 8 -1 -1 8 60 -1 5 0 -1 -1 -1 -1 -1 -1\n"   // cancelled
      "4 3 -1 60 8 -1 -1 8 60 -1 -1 0 -1 -1 -1 -1 -1 -1\n"); // unknown: keep
  const Trace t = load(in, "t");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].id, 1);
  EXPECT_EQ(t[1].id, 4);
}

TEST(SwfTest, KeepsFailedJobsWhenAsked) {
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 60 8 -1 -1 8 60 -1 0 0 -1 -1 -1 -1 -1 -1\n");
  LoadOptions opt;
  opt.completed_only = false;
  EXPECT_EQ(load(in, "t", opt).size(), 1u);
}

TEST(SwfTest, SkipsUnusableRecords) {
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 -1 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n"   // no runtime
      "2 0 -1 60 -1 -1 -1 -1 60 -1 1 0 -1 -1 -1 -1 -1 -1\n" // no size
      "3 0 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  const Trace t = load(in, "t");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].id, 3);
}

TEST(SwfTest, WalltimeFallsBackToRuntime) {
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 60 8 -1 -1 8 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  const Trace t = load(in, "t");
  EXPECT_EQ(t[0].walltime, 60);
}

TEST(SwfTest, MalformedLineThrows) {
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 60 8 banana -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  EXPECT_THROW(load(in, "t"), Error);
  std::istringstream in2(
      "; MaxNodes: 64\n"
      "1 0 -1 60\n");  // too few fields
  EXPECT_THROW(load(in2, "t"), Error);
}

TEST(SwfTest, MalformedLineErrorsCarryFileAndLinePosition) {
  // A garbled token names "<source>:<line>" and echoes the offender.
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "2 0 -1 60 8 banana -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  try {
    load(in, "jobs.swf", {}, "/data/jobs.swf");
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/data/jobs.swf:3:"), std::string::npos) << what;
    EXPECT_NE(what.find("non-numeric token"), std::string::npos) << what;
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
  }

  // A truncated record reports line, expected and actual field counts.
  std::istringstream in2(
      "; MaxNodes: 64\n"
      "1 0 -1 60\n");
  try {
    load(in2, "short.swf");
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    // No explicit source: errors fall back to the trace name.
    EXPECT_NE(what.find("short.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated record"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 18 fields, got 4"), std::string::npos)
        << what;
  }
}

TEST(SwfTest, RecoverableRepairsWarnOncePerKindWithTotals) {
  // Three skipped-for-no-runtime records and one walltime fallback: the
  // first occurrence of each kind prints with its position, further ones
  // are only counted, and a per-kind total closes the load.
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 -1 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "2 0 -1 -1 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "3 0 -1 -1 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "4 0 -1 60 8 -1 -1 8 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "5 1 -1 60 8 -1 -1 8 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ::testing::internal::CaptureStderr();
  const Trace t = load(in, "warn.swf");
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(t.size(), 2u);

  // First occurrence printed once (a warn-level logfmt line carrying
  // the source and line as fields)...
  const std::string first = "record skipped: no usable runtime "
                            "(first 'record-without-runtime'";
  const std::size_t at = err.find(first);
  EXPECT_NE(at, std::string::npos) << err;
  EXPECT_EQ(err.find(first, at + 1), std::string::npos)
      << "printed more than once:\n"
      << err;
  EXPECT_NE(err.find("component=trace.swf"), std::string::npos) << err;
  EXPECT_NE(err.find("source=warn.swf line=2"), std::string::npos) << err;
  // ...occurrences 2 and 3 only show up in the closing total...
  const std::size_t total =
      err.find("records total with 'record-without-runtime'");
  EXPECT_NE(total, std::string::npos) << err;
  EXPECT_NE(err.find("records=3", total), std::string::npos) << err;
  // ...and a single-occurrence kind gets no total line.
  const std::size_t single = err.find("requested time missing");
  EXPECT_NE(single, std::string::npos) << err;
  EXPECT_NE(err.find("line=5", single), std::string::npos) << err;
  EXPECT_EQ(err.find("records total with 'walltime-missing'"),
            std::string::npos)
      << err;
}

TEST(SwfTest, OverwideJobsWarnWhenClamped) {
  std::istringstream in(
      "; MaxNodes: 64\n"
      "1 0 -1 60 128 -1 -1 128 60 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ::testing::internal::CaptureStderr();
  const Trace t = load(in, "wide.swf");
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].nodes, 64);
  EXPECT_NE(err.find("job wider than the machine clamped to 64 nodes"),
            std::string::npos)
      << err;
}

TEST(SwfTest, RoundTripWithoutPower) {
  Trace t("rt", 256);
  t.add_job(make_job(1, 0, 16, 3600));
  t.add_job(make_job(2, 60, 256, 600));
  std::ostringstream out;
  save(out, t, /*with_power_column=*/false);
  std::istringstream in(out.str());
  const Trace back = load(in, "rt");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.system_nodes(), 256);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back[i].id, t[i].id);
    EXPECT_EQ(back[i].submit, t[i].submit);
    EXPECT_EQ(back[i].runtime, t[i].runtime);
    EXPECT_EQ(back[i].walltime, t[i].walltime);
    EXPECT_EQ(back[i].nodes, t[i].nodes);
    EXPECT_EQ(back[i].user, t[i].user);
    EXPECT_DOUBLE_EQ(back[i].power_per_node, 0.0);
  }
}

TEST(SwfTest, RoundTripWithPowerColumn) {
  Trace t("rt", 256);
  t.add_job(make_job(1, 0, 16, 3600, 23.456789));
  t.add_job(make_job(2, 60, 8, 600, 57.5));
  std::ostringstream out;
  save(out, t, /*with_power_column=*/true);
  EXPECT_NE(out.str().find("; PowerColumn: true"), std::string::npos);
  std::istringstream in(out.str());
  const Trace back = load(in, "rt");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_NEAR(back[0].power_per_node, 23.456789, 1e-6);
  EXPECT_NEAR(back[1].power_per_node, 57.5, 1e-6);
}

TEST(SwfTest, ReversedFileLoadsToTheSortedTrace) {
  // Pairs of jobs share a submit, so ties must resolve by id either way.
  Trace t("big", 64);
  for (JobId id = 1; id <= 50000; ++id) {
    t.add_job(make_job(id, (id / 2) * 30, 1 + id % 64, 600));
  }
  std::ostringstream out;
  save(out, t, /*with_power_column=*/false);

  std::istringstream lines(out.str());
  std::string header;
  std::vector<std::string> records;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == ';') {
      header += line + "\n";
    } else {
      records.push_back(line);
    }
  }
  ASSERT_EQ(records.size(), t.size());
  std::string reversed = header;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    reversed += *it + "\n";
  }

  std::istringstream sorted_in(out.str());
  std::istringstream reversed_in(reversed);
  const Trace a = load(sorted_in, "big");
  const Trace b = load(reversed_in, "big");
  ASSERT_EQ(a.size(), t.size());
  ASSERT_EQ(b.size(), t.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(b[i].id, a[i].id) << "pos " << i;
    ASSERT_EQ(b[i].submit, a[i].submit) << "pos " << i;
    ASSERT_EQ(b[i].nodes, a[i].nodes) << "pos " << i;
    ASSERT_EQ(b[i].runtime, a[i].runtime) << "pos " << i;
    ASSERT_EQ(b[i].walltime, a[i].walltime) << "pos " << i;
    ASSERT_EQ(a[i].id, t[i].id) << "pos " << i;
  }
  b.validate();
}

TEST(SwfTest, LoadFileErrorsOnMissingPath) {
  EXPECT_THROW(load_file("/nonexistent/file.swf"), Error);
}

}  // namespace
}  // namespace esched::trace::swf
