// Tests for the structured logging subsystem (src/obs/log.*): logfmt
// shape (ts/level/component/msg plus fields, quoting), level gating,
// ESCHED_LOG_LEVEL parsing, file sinks with parent-directory creation,
// and the windowed repeat suppression that keeps a hot failure loop
// from burying the terminal.
#include "obs/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace esched::obs {
namespace {

/// Restore global logging state around each test: level and sink. The
/// repeat-suppression table is process-wide too, so every test logs
/// messages no other test logs.
class ObsLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    level_ = log_level();
    set_log_level(LogLevel::kDebug);
  }
  void TearDown() override {
    set_log_file("");
    set_log_level(level_);
  }
  LogLevel level_ = LogLevel::kInfo;
};

std::string capture(LogLevel level, const char* component,
                    const std::string& msg,
                    std::initializer_list<LogField> fields = {}) {
  ::testing::internal::CaptureStderr();
  log(level, component, msg, fields);
  return ::testing::internal::GetCapturedStderr();
}

TEST_F(ObsLogTest, LogfmtLineShape) {
  const std::string line =
      capture(LogLevel::kInfo, "test.shape", "hello",
              {{"key", "value"}, {"n", 42}, {"flag", true}});
  // ts=<ISO8601>Z first, then the fixed trio, then fields in order.
  EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
  EXPECT_NE(line.find("T"), std::string::npos) << line;
  EXPECT_NE(line.find("Z level=info component=test.shape msg=hello"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(" key=value"), std::string::npos) << line;
  EXPECT_NE(line.find(" n=42"), std::string::npos) << line;
  EXPECT_NE(line.find(" flag=true"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n') << line;
}

TEST_F(ObsLogTest, ValuesWithSpacesQuotesAndControlsAreQuoted) {
  const std::string line =
      capture(LogLevel::kWarn, "test.quote", "two words",
              {{"path", "/a b/c"},
               {"quoted", "say \"hi\""},
               {"newline", "a\nb"},
               {"empty", ""}});
  EXPECT_NE(line.find("msg=\"two words\""), std::string::npos) << line;
  EXPECT_NE(line.find("path=\"/a b/c\""), std::string::npos) << line;
  EXPECT_NE(line.find("quoted=\"say \\\"hi\\\"\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("newline=\"a\\nb\""), std::string::npos) << line;
  EXPECT_NE(line.find("empty=\"\""), std::string::npos) << line;
  // The physical line stays single-line despite the embedded newline.
  EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
}

TEST_F(ObsLogTest, LevelsGateAndRenderByName) {
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(capture(LogLevel::kDebug, "test.gate", "drop me"), "");
  EXPECT_EQ(capture(LogLevel::kInfo, "test.gate", "drop me too"), "");
  const std::string warn = capture(LogLevel::kWarn, "test.gate", "kept");
  EXPECT_NE(warn.find("level=warn"), std::string::npos) << warn;
  const std::string error = capture(LogLevel::kError, "test.gate", "kept");
  EXPECT_NE(error.find("level=error"), std::string::npos) << error;
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(capture(LogLevel::kError, "test.gate", "even errors"), "");
}

TEST_F(ObsLogTest, LevelNamesParseCaseInsensitively) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(log_level_from_string("DEBUG", level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(log_level_from_string("warning", level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(log_level_from_string("none", level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(log_level_from_string("loud", level));
}

TEST_F(ObsLogTest, RepeatSuppressionCapsABurstAndCountsTheRest) {
  const bool was_enabled = counters_enabled();
  set_counters_enabled(true);
  Counter& suppressed = Registry::global().counter("log.suppressed");
  const std::uint64_t before = suppressed.value();
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 50; ++i) {
    log_warn("test.burst", "same line every time", {{"i", i}});
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  // The 1-second window admits a small burst; the rest are counted, not
  // printed. (A window boundary mid-loop at most doubles the burst.)
  std::size_t lines = 0;
  for (const char c : err) lines += c == '\n' ? 1u : 0u;
  EXPECT_GE(lines, 5u) << err;
  EXPECT_LE(lines, 10u) << err;
  EXPECT_GE(suppressed.value() - before, 40u);
  set_counters_enabled(was_enabled);
  // A *different* message is not suppressed by the burst above.
  const std::string other =
      capture(LogLevel::kWarn, "test.burst", "a different line");
  EXPECT_NE(other.find("a different line"), std::string::npos);
}

TEST_F(ObsLogTest, SuppressionFeedsTheMetricsPlaneWhenCountersAreHot) {
  const bool was_enabled = counters_enabled();
  set_counters_enabled(true);
  const std::uint64_t before =
      Registry::global().counter("log.suppressed").value();
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 20; ++i) {
    log_warn("test.metric", "suppression metric probe");
  }
  ::testing::internal::GetCapturedStderr();
  EXPECT_GE(Registry::global().counter("log.suppressed").value() - before,
            10u);
  set_counters_enabled(was_enabled);
}

TEST_F(ObsLogTest, FileSinkCreatesParentDirectoriesAndAppends) {
  const std::string dir = ::testing::TempDir() + "esched-log-test-" +
                          std::to_string(::getpid());
  const std::string path = dir + "/nested/deeper/daemon.log";
  set_log_file(path);
  log_info("test.file", "first line", {{"k", 1}});
  log_info("test.file", "second line", {{"k", 2}});
  set_log_file("");  // close; back to stderr

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("msg=\"first line\" k=1"), std::string::npos) << text;
  EXPECT_NE(text.find("msg=\"second line\" k=2"), std::string::npos)
      << text;

  std::remove(path.c_str());
  std::remove((dir + "/nested/deeper").c_str());
  std::remove((dir + "/nested").c_str());
  std::remove(dir.c_str());
}

TEST_F(ObsLogTest, UnwritableFileSinkThrowsWithTheFullPath) {
  try {
    set_log_file("/proc/definitely/not/writable/here.log");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/proc/definitely"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace esched::obs
