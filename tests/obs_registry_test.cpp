// Tests for the counter/gauge/timer registry (src/obs/registry.*): the
// sharded-counter arithmetic, the enable gate, and the golden shape of
// the JSON snapshot (valid JSON, keys sorted — stable across runs).
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "json_check.hpp"
#include "util/error.hpp"

namespace esched::obs {
namespace {

// Each test uses its own Registry instance (not Registry::global()) so
// tests stay order-independent; the global enable flag is restored by the
// fixture because other suites in this binary may care.
class ObsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = counters_enabled(); }
  void TearDown() override { set_counters_enabled(was_enabled_); }
  Registry registry_;
  bool was_enabled_ = false;
};

TEST_F(ObsRegistryTest, CountersStartDisabled) {
  // The process-wide default: observability is opt-in.
  EXPECT_FALSE(was_enabled_);
  set_counters_enabled(true);
  EXPECT_TRUE(counters_enabled());
  set_counters_enabled(false);
  EXPECT_FALSE(counters_enabled());
}

TEST_F(ObsRegistryTest, CounterSumsAcrossThreads) {
  Counter& c = registry_.counter("test.threads");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsRegistryTest, LookupIsFindOrCreate) {
  Counter& a = registry_.counter("same.name");
  Counter& b = registry_.counter("same.name");
  EXPECT_EQ(&a, &b);  // cached references stay valid
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(&registry_.counter("other.name"), &a);
}

TEST_F(ObsRegistryTest, TimerAccumulatesIntervals) {
  Timer& t = registry_.timer("test.timer");
  t.record(100);
  t.record(250);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.total_nanos(), 350u);
}

TEST_F(ObsRegistryTest, ScopedTimerRecordsOnlyWhenEnabled) {
  Timer& t = registry_.timer("test.scoped");
  set_counters_enabled(false);
  { ScopedTimer scope(t); }
  EXPECT_EQ(t.count(), 0u);
  set_counters_enabled(true);
  { ScopedTimer scope(t); }
  EXPECT_EQ(t.count(), 1u);
}

TEST_F(ObsRegistryTest, SnapshotCopiesEveryInstrument) {
  registry_.counter("c.one").add(7);
  registry_.gauge("g.one").set(2.5);
  registry_.timer("t.one").record(42);
  const Registry::Snapshot snap = registry_.snapshot();
  ASSERT_EQ(snap.counters.count("c.one"), 1u);
  EXPECT_EQ(snap.counters.at("c.one"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g.one"), 2.5);
  EXPECT_EQ(snap.timers.at("t.one").count, 1u);
  EXPECT_EQ(snap.timers.at("t.one").total_nanos, 42u);
}

TEST_F(ObsRegistryTest, JsonSnapshotIsValidWithSortedKeys) {
  // Register deliberately out of order: the export must sort.
  registry_.counter("zebra").add(1);
  registry_.counter("alpha").add(2);
  registry_.counter("mid.dle").add(3);
  registry_.gauge("g").set(1.5);
  registry_.timer("t").record(9);
  std::ostringstream os;
  Registry::write_snapshot_json(registry_.snapshot(), os);
  const std::string json = os.str();

  std::string error;
  EXPECT_TRUE(testjson::is_valid_json(json, &error)) << error;

  const std::size_t alpha = json.find("\"alpha\"");
  const std::size_t middle = json.find("\"mid.dle\"");
  const std::size_t zebra = json.find("\"zebra\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(middle, std::string::npos);
  ASSERT_NE(zebra, std::string::npos);
  EXPECT_LT(alpha, middle);
  EXPECT_LT(middle, zebra);

  // Section order is part of the golden shape too.
  EXPECT_LT(json.find("\"counters\""), json.find("\"gauges\""));
  EXPECT_LT(json.find("\"gauges\""), json.find("\"timers\""));
  EXPECT_NE(json.find("\"total_nanos\": 9"), std::string::npos);
}

TEST_F(ObsRegistryTest, EmptyRegistryStillEmitsValidJson) {
  std::ostringstream os;
  Registry::write_snapshot_json(registry_.snapshot(), os);
  std::string error;
  EXPECT_TRUE(testjson::is_valid_json(os.str(), &error)) << error;
}

TEST_F(ObsRegistryTest, WriteJsonFileRoundTrips) {
  registry_.counter("file.counter").add(11);
  const std::string path = ::testing::TempDir() + "obs_registry_test.json";
  registry_.write_json_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  EXPECT_TRUE(testjson::is_valid_json(buffer.str(), &error)) << error;
  EXPECT_NE(buffer.str().find("\"file.counter\": 11"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsRegistryTest, WriteJsonFileCreatesMissingParentDirectories) {
  // --metrics-out pointing into a directory that does not exist yet must
  // create it rather than fail the run at the final write.
  registry_.counter("deep.counter").add(3);
  const std::string dir = ::testing::TempDir() + "obs-registry-deep-" +
                          std::to_string(::getpid());
  const std::string path = dir + "/a/b/metrics.json";
  registry_.write_json_file(path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::remove(path.c_str());
  std::remove((dir + "/a/b").c_str());
  std::remove((dir + "/a").c_str());
  std::remove(dir.c_str());
}

TEST_F(ObsRegistryTest, WriteJsonFileThrowsWithPathOnFailure) {
  // A parent that cannot be created (a path component is a regular
  // file) fails naming the full target path — privilege-independent,
  // unlike an unwritable directory.
  const std::string file = ::testing::TempDir() + "obs-registry-plug-" +
                           std::to_string(::getpid());
  { std::ofstream plug(file); }
  const std::string path = file + "/sub/metrics.json";
  try {
    registry_.write_json_file(path);
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(file.c_str());
}

TEST_F(ObsRegistryTest, ResetZeroesButKeepsNames) {
  registry_.counter("r.c").add(5);
  registry_.gauge("r.g").set(4.0);
  registry_.timer("r.t").record(6);
  registry_.reset();
  const Registry::Snapshot snap = registry_.snapshot();
  EXPECT_EQ(snap.counters.at("r.c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("r.g"), 0.0);
  EXPECT_EQ(snap.timers.at("r.t").count, 0u);
}

}  // namespace
}  // namespace esched::obs
