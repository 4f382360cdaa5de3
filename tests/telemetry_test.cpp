// Tests for the fleet telemetry plane (obs/telemetry, obs/fleet,
// obs/flight): the coordinator-side merge of per-process Registry
// snapshots (label-prefixed metrics plus fleet.* sums, highest-sequence-
// wins snapshot semantics, clock-offset re-basing of shipped spans), the
// bounded span buffer, and the crash flight recorder's ring/dump
// contract (dump names the in-flight cell; byte-stable across runs).
#include "obs/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace esched::obs {
namespace {

std::string make_temp_dir() {
  char tmpl[] = "/tmp/esched_telemetry_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Telemetry shipment(const std::string& role, std::uint64_t pid,
                   std::uint64_t sequence, std::uint64_t events) {
  Telemetry t;
  t.role = role;
  t.pid = pid;
  t.sequence = sequence;
  t.metrics.counters["sim.events_processed"] = events;
  t.metrics.gauges["pool.workers"] = 2.0;
  Registry::TimerValue timer;
  timer.count = 2;
  timer.total_nanos = 3000;
  timer.buckets[10] = 2;
  t.metrics.timers["sweep.cell_sim"] = timer;
  return t;
}

TEST(FleetAggregatorTest, MergedEqualsSumOfPerProcessRegistries) {
  FleetAggregator fleet;
  EXPECT_TRUE(fleet.empty());
  fleet.ingest("worker.0", shipment("worker", 100, 1, 1000), 0);
  fleet.ingest("worker.1", shipment("worker", 101, 1, 500), 0);
  EXPECT_FALSE(fleet.empty());

  const Registry::Snapshot merged = fleet.merged();
  EXPECT_EQ(merged.counters.at("worker.0.sim.events_processed"), 1000u);
  EXPECT_EQ(merged.counters.at("worker.1.sim.events_processed"), 500u);
  // The fleet sum is exactly the sum of the per-process values.
  EXPECT_EQ(merged.counters.at("fleet.sim.events_processed"), 1500u);
  // Gauges stay label-scoped (summing them would be meaningless).
  EXPECT_EQ(merged.gauges.at("worker.0.pool.workers"), 2.0);
  EXPECT_EQ(merged.gauges.count("fleet.pool.workers"), 0u);
  // Timer merges sum counts, totals and buckets, so fleet quantiles
  // remain computable.
  const Registry::TimerValue& timer = merged.timers.at("fleet.sweep.cell_sim");
  EXPECT_EQ(timer.count, 4u);
  EXPECT_EQ(timer.total_nanos, 6000u);
  EXPECT_EQ(timer.buckets[10], 4u);
}

TEST(FleetAggregatorTest, HighestSequenceSnapshotWinsPerProcess) {
  // Snapshots are cumulative, not deltas: a late-arriving older shipment
  // (reordered frames after a reconnect) must not roll counters back.
  FleetAggregator fleet;
  fleet.ingest("worker.0", shipment("worker", 100, 5, 900), 0);
  fleet.ingest("worker.0", shipment("worker", 100, 3, 400), 0);
  EXPECT_EQ(fleet.merged().counters.at("worker.0.sim.events_processed"),
            900u);
  // A respawned worker (new pid, same slot label) sums into the label.
  fleet.ingest("worker.0", shipment("worker", 200, 1, 50), 0);
  EXPECT_EQ(fleet.merged().counters.at("worker.0.sim.events_processed"),
            950u);
}

TEST(FleetAggregatorTest, StitchRebasesClocksAndDrainsSpans) {
  FleetAggregator fleet;
  Telemetry t = shipment("worker", 100, 1, 10);
  t.spans.push_back({"simulate:cell", "simulate", 1, 1000, 2000, 42});
  // A +5000 ns clock offset: the stitched span must land at 6000..7000
  // on the coordinator's clock.
  fleet.ingest("agent.0.worker.0", t, 5000);

  const std::string dir = make_temp_dir();
  const std::string trace_path = dir + "/trace.json";
  {
    Tracer tracer;
    tracer.open(trace_path);
    fleet.stitch_into(tracer);
    // Stitching drains: a second stitch must not duplicate the span.
    fleet.stitch_into(tracer);
    tracer.close();
  }
  const std::string trace = slurp(trace_path);
  // One process_name metadata event labels the synthetic pid group.
  EXPECT_NE(trace.find("agent.0.worker.0"), std::string::npos) << trace;
  // Exactly one copy of the span, with a flow-end event bound to it.
  const std::size_t first = trace.find("simulate:cell");
  ASSERT_NE(first, std::string::npos) << trace;
  EXPECT_EQ(trace.find("simulate:cell", first + 1), std::string::npos)
      << "stitch_into duplicated a span";
  EXPECT_NE(trace.find("\"ph\": \"f\""), std::string::npos) << trace;
  std::remove(trace_path.c_str());
  std::remove((trace_path + Tracer::kDecisionLogSuffix).c_str());
  ::rmdir(dir.c_str());
}

TEST(FleetAggregatorTest, WriteJsonFileIsCrashSafeAndMerged) {
  FleetAggregator fleet;
  fleet.ingest("worker.0", shipment("worker", 100, 1, 123), 0);
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/metrics.json";
  fleet.write_json_file(path);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"worker.0.sim.events_processed\": 123"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fleet.sim.events_processed\": 123"),
            std::string::npos)
      << json;
  // The temp file was renamed into place, not left behind.
  EXPECT_NE(::access(path.c_str(), R_OK), -1);
  EXPECT_EQ(::access((path + ".tmp").c_str(), R_OK), -1);
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(SpanBufferTest, BoundsGrowthAndCountsDrops) {
  SpanBuffer buffer;
  for (std::size_t i = 0; i < SpanBuffer::kMaxSpans + 5; ++i) {
    buffer.add({"s", "c", 1, i, i + 1, 0});
  }
  EXPECT_EQ(buffer.dropped(), 5u);
  const std::vector<SpanRecord> drained = buffer.drain();
  EXPECT_EQ(drained.size(), SpanBuffer::kMaxSpans);
  // Drained means drained: the next shipment starts empty.
  EXPECT_TRUE(buffer.drain().empty());
}

TEST(TelemetryCollectTest, ShipmentsCarryRegistryAndSequence) {
  Registry::global().counter("telemetry_test.collect").add(7);
  const Telemetry first = collect_telemetry("worker");
  const Telemetry second = collect_telemetry("worker");
  EXPECT_EQ(first.role, "worker");
  EXPECT_GT(first.pid, 0u);
  EXPECT_GT(second.sequence, first.sequence);
  EXPECT_EQ(first.metrics.counters.at("telemetry_test.collect"), 7u);
}

TEST(FlightRecorderTest, DumpNamesTheInFlightCellAndIsByteStable) {
  const std::string dir = make_temp_dir();
  FlightRecorder& flight = FlightRecorder::global();
  flight.configure(dir, /*ring_capacity=*/3);
  ASSERT_TRUE(flight.enabled());

  flight.set_context(4, 1, "knapsack/sdsc-blue");
  for (int i = 0; i < 5; ++i) {
    flight.record("{\"tick\": " + std::to_string(i) + "}");
  }
  const std::string path = flight.dump();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, FlightRecorder::dump_path(dir, 4, 1));
  const std::string first_dump = slurp(path);
  // The dump names the cell, task and attempt of the work in flight...
  EXPECT_NE(first_dump.find("knapsack/sdsc-blue"), std::string::npos)
      << first_dump;
  EXPECT_NE(first_dump.find("\"task\": 4"), std::string::npos) << first_dump;
  EXPECT_NE(first_dump.find("\"attempt\": 1"), std::string::npos)
      << first_dump;
  // ...and rings: only the newest `capacity` records survive, in order.
  EXPECT_EQ(first_dump.find("\"tick\": 0"), std::string::npos) << first_dump;
  EXPECT_EQ(first_dump.find("\"tick\": 1"), std::string::npos) << first_dump;
  EXPECT_LT(first_dump.find("\"tick\": 2"), first_dump.find("\"tick\": 3"));
  EXPECT_LT(first_dump.find("\"tick\": 3"), first_dump.find("\"tick\": 4"));

  // Byte stability: replaying the same decisions produces the identical
  // dump — crash postmortems must be diffable across runs.
  flight.set_context(4, 1, "knapsack/sdsc-blue");
  for (int i = 0; i < 5; ++i) {
    flight.record("{\"tick\": " + std::to_string(i) + "}");
  }
  EXPECT_EQ(slurp(flight.dump()), first_dump);

  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace esched::obs
