// Tests for the supervisor<->worker wire protocol (run/wire.hpp): the
// round trip of both payload types must be *exact* (results_identical,
// field-by-field spec equality), and every corruption class the
// supervisor claims to detect — bad magic, bad version, bad length,
// payload CRC mismatch, truncated payload — must actually be rejected.
#include "run/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "meta/spec.hpp"
#include "obs/telemetry.hpp"
#include "oracles.hpp"
#include "power/facility.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "util/error.hpp"

namespace esched::run::wire {
namespace {

JobSpec sample_spec() {
  JobSpec spec;
  spec.trace.source = "anl-bgp";
  spec.trace.months = 2;
  spec.trace.seed = 7;
  spec.trace.power_ratio = 2.5;
  spec.trace.force_power_ratio = true;
  spec.trace.power_seed = 99;
  spec.pricing.model = "onoff";
  spec.pricing.off_peak_price = 0.041;
  spec.pricing.ratio = 4.0;
  spec.policy.name = "knapsack";
  spec.config.scheduler.starvation_age = 3600;
  spec.config.max_passes_per_tick = 1;
  spec.label = "knapsack/anl-bgp/guard=3600";
  return spec;
}

TEST(WireTest, Crc32MatchesKnownVectors) {
  // The zlib convention: crc32("123456789") == 0xCBF43926.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(WireTest, ByteReaderRejectsTruncation) {
  ByteWriter w;
  w.u32(42);
  w.str("hello");
  const auto bytes = w.bytes();
  ByteReader ok(bytes);
  EXPECT_EQ(ok.u32(), 42u);
  EXPECT_EQ(ok.str(), "hello");
  ok.expect_end();

  // Reading past the end throws rather than fabricating values.
  ByteReader short_read(bytes.data(), bytes.size() - 1);
  EXPECT_EQ(short_read.u32(), 42u);
  EXPECT_THROW(short_read.str(), Error);

  // Trailing bytes mean the two sides disagree about the encoding.
  ByteReader trailing(bytes);
  EXPECT_EQ(trailing.u32(), 42u);
  EXPECT_THROW(trailing.expect_end(), Error);
}

TEST(WireTest, JobSpecRoundTripIsExact) {
  const JobSpec spec = sample_spec();
  const JobSpec back = decode_job(encode_job(spec));
  EXPECT_EQ(back.trace, spec.trace);
  EXPECT_EQ(back.pricing, spec.pricing);
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.label, spec.label);
  EXPECT_EQ(back.config.scheduler.starvation_age,
            spec.config.scheduler.starvation_age);
  EXPECT_EQ(back.config.max_passes_per_tick, spec.config.max_passes_per_tick);
}

TEST(WireTest, SimResultRoundTripIsBitIdentical) {
  // A real simulation result, not a synthetic struct: every field class
  // (records, bills, curves, counters, doubles with full precision) must
  // survive the wire byte-for-byte.
  JobSpec spec = sample_spec();
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  spec.policy.name = "greedy";
  const sim::SimResult result = run_alone(spec).result;
  ASSERT_FALSE(result.records.empty());
  const sim::SimResult back = decode_result(encode_result(result));
  EXPECT_TRUE(results_identical(result, back));
  EXPECT_EQ(back.policy_name, result.policy_name);
  EXPECT_EQ(back.trace_name, result.trace_name);
}

TEST(WireTest, ErrorPayloadRoundTrips) {
  EXPECT_EQ(decode_error(encode_error("bad spec: no such policy")),
            "bad spec: no such policy");
  EXPECT_EQ(decode_error(encode_error("")), "");
}

TEST(WireTest, FrameHeaderRoundTrips) {
  const std::vector<std::uint8_t> payload = encode_error("x");
  const auto frame =
      encode_frame(FrameType::kError, /*task_id=*/12, /*attempt=*/3, payload);
  ASSERT_GE(frame.size(), kHeaderSize);
  const FrameHeader h = decode_header(frame.data());
  EXPECT_EQ(h.type, FrameType::kError);
  EXPECT_EQ(h.task_id, 12u);
  EXPECT_EQ(h.attempt, 3u);
  EXPECT_EQ(h.payload_size, payload.size());
  EXPECT_TRUE(verify_payload(h, frame.data() + kHeaderSize));
}

TEST(WireTest, HeaderValidationCatchesEveryCorruptionClass) {
  const auto payload = encode_error("y");
  const auto good = encode_frame(FrameType::kError, 0, 0, payload);

  auto corrupt = good;
  corrupt[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode_header(corrupt.data()), Error);

  corrupt = good;
  corrupt[4] ^= 0xFF;  // version
  EXPECT_THROW(decode_header(corrupt.data()), Error);

  corrupt = good;
  corrupt[6] = 0x7F;  // unknown frame type
  EXPECT_THROW(decode_header(corrupt.data()), Error);

  corrupt = good;
  corrupt[7] = 1;  // reserved byte must be 0
  EXPECT_THROW(decode_header(corrupt.data()), Error);

  corrupt = good;
  // payload_size beyond kMaxPayload reads as corruption, not a request
  // to allocate 4 GB.
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(corrupt.data() + 16, &huge, sizeof huge);
  EXPECT_THROW(decode_header(corrupt.data()), Error);
}

TEST(WireTest, PayloadCrcCatchesBitFlips) {
  const auto payload = encode_error("the quick brown fox");
  auto frame = encode_frame(FrameType::kError, 5, 0, payload);
  const FrameHeader h = decode_header(frame.data());
  ASSERT_TRUE(verify_payload(h, frame.data() + kHeaderSize));
  frame[kHeaderSize + 4] ^= 0x01;  // single bit flip in the payload
  EXPECT_FALSE(verify_payload(h, frame.data() + kHeaderSize));
}

obs::Telemetry sample_telemetry() {
  obs::Telemetry t;
  t.role = "worker";
  t.pid = 4242;
  t.sequence = 9;
  t.metrics.counters["sim.events_processed"] = 100000;
  t.metrics.counters["sched.backfill_hits"] = 17;
  t.metrics.gauges["pool.workers"] = 8.5;
  obs::Registry::TimerValue timer;
  timer.count = 3;
  timer.total_nanos = 4500;
  timer.buckets[10] = 2;
  timer.buckets[11] = 1;
  t.metrics.timers["sweep.cell_sim"] = timer;
  t.spans.push_back({"simulate:a", "simulate", 1, 100, 200, 7});
  t.spans.push_back({"simulate:b", "simulate", 2, 150, 260, 0});
  return t;
}

TEST(WireTest, TelemetryRoundTripIsExact) {
  const obs::Telemetry t = sample_telemetry();
  const obs::Telemetry back = decode_telemetry(encode_telemetry(t));
  EXPECT_EQ(back.role, t.role);
  EXPECT_EQ(back.pid, t.pid);
  EXPECT_EQ(back.sequence, t.sequence);
  EXPECT_EQ(back.metrics.counters, t.metrics.counters);
  EXPECT_EQ(back.metrics.gauges, t.metrics.gauges);
  ASSERT_EQ(back.metrics.timers.size(), t.metrics.timers.size());
  const obs::Registry::TimerValue& timer =
      back.metrics.timers.at("sweep.cell_sim");
  EXPECT_EQ(timer.count, 3u);
  EXPECT_EQ(timer.total_nanos, 4500u);
  EXPECT_EQ(timer.buckets, t.metrics.timers.at("sweep.cell_sim").buckets);
  ASSERT_EQ(back.spans.size(), t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name, t.spans[i].name);
    EXPECT_EQ(back.spans[i].category, t.spans[i].category);
    EXPECT_EQ(back.spans[i].track, t.spans[i].track);
    EXPECT_EQ(back.spans[i].begin_nanos, t.spans[i].begin_nanos);
    EXPECT_EQ(back.spans[i].end_nanos, t.spans[i].end_nanos);
    EXPECT_EQ(back.spans[i].flow_id, t.spans[i].flow_id);
  }

  // An empty shipment survives too (a worker with nothing to report).
  const obs::Telemetry empty = decode_telemetry(encode_telemetry({}));
  EXPECT_TRUE(empty.metrics.counters.empty());
  EXPECT_TRUE(empty.spans.empty());
}

TEST(WireTest, TelemetryRejectsEveryCorruptionClass) {
  // Unknown payload version: an old coordinator must refuse a future
  // worker's shipment rather than misparse it.
  std::vector<std::uint8_t> alien = encode_telemetry(sample_telemetry());
  alien[0] = 0xFE;  // version is the leading little-endian u32
  EXPECT_THROW(decode_telemetry(alien), Error);

  // Truncation mid-structure.
  std::vector<std::uint8_t> cut = encode_telemetry(sample_telemetry());
  cut.erase(cut.end() - 3, cut.end());
  EXPECT_THROW(decode_telemetry(cut), Error);

  // Trailing bytes: the two sides disagree about the encoding.
  std::vector<std::uint8_t> extra = encode_telemetry(sample_telemetry());
  extra.push_back(0);
  EXPECT_THROW(decode_telemetry(extra), Error);

  // A fabricated span count far beyond the remaining payload must be
  // rejected up front, not turned into a gigantic allocation. With no
  // spans the count is the trailing u32.
  obs::Telemetry no_spans = sample_telemetry();
  no_spans.spans.clear();
  std::vector<std::uint8_t> huge = encode_telemetry(no_spans);
  huge[huge.size() - 4] = 0xFF;
  huge[huge.size() - 3] = 0xFF;
  huge[huge.size() - 2] = 0xFF;
  huge[huge.size() - 1] = 0x7F;
  EXPECT_THROW(decode_telemetry(huge), Error);
}

TEST(WireTest, JournalFramesCarryTheHighestFrameType) {
  // kJournal is the newest frame type; decode_header must admit it (and
  // still reject the next value up).
  JournalRecord record;
  record.cell_key = "k";
  record.result_bytes = {1, 2, 3};
  const auto frame = encode_frame(FrameType::kJournal, 3, 1,
                                  encode_journal_record(record));
  const FrameHeader h = decode_header(frame.data());
  EXPECT_EQ(h.type, FrameType::kJournal);
  EXPECT_TRUE(verify_payload(h, frame.data() + kHeaderSize));

  auto corrupt = frame;
  corrupt[6] = static_cast<std::uint8_t>(FrameType::kJournal) + 1;
  EXPECT_THROW(decode_header(corrupt.data()), Error);
}

TEST(WireTest, SubmitRequestRoundTripsExactly) {
  SubmitRequest request;
  request.sweep_id = "sweep-0123abcd";
  request.specs = {sample_spec(), sample_spec()};
  request.specs[1].pricing.ratio = 9.0;
  request.specs[1].label = "second";

  const SubmitRequest decoded = decode_submit(encode_submit(request));
  EXPECT_EQ(decoded.sweep_id, request.sweep_id);
  ASSERT_EQ(decoded.specs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cell_key(decoded.specs[i]), cell_key(request.specs[i]))
        << "spec " << i;
    EXPECT_EQ(decoded.specs[i].label, request.specs[i].label);
  }
  // Truncation must throw, not decode a shorter grid.
  auto bytes = encode_submit(request);
  bytes.erase(bytes.end() - 3, bytes.end());
  EXPECT_THROW(decode_submit(bytes), Error);
}

TEST(WireTest, SweepDoneRoundTrips) {
  SweepDone done;
  done.simulated = 37;
  done.journal_hits = 63;
  const SweepDone back = decode_sweep_done(encode_sweep_done(done));
  EXPECT_EQ(back.simulated, 37u);
  EXPECT_EQ(back.journal_hits, 63u);
}

TEST(WireTest, JournalRecordRoundTripsVerbatim) {
  JournalRecord record;
  record.cell_key = "trace=sdsc-blue|policy=fcfs";
  for (int i = 0; i < 300; ++i) {
    record.result_bytes.push_back(static_cast<std::uint8_t>(i * 7));
  }
  const JournalRecord back =
      decode_journal_record(encode_journal_record(record));
  EXPECT_EQ(back.cell_key, record.cell_key);
  EXPECT_EQ(back.result_bytes, record.result_bytes);  // byte-identical
  // Trailing bytes are a format mismatch, not ignorable padding.
  auto bytes = encode_journal_record(record);
  bytes.push_back(0);
  EXPECT_THROW(decode_journal_record(bytes), Error);
}

TEST(WireTest, FacilityModelSpecsAreRejected) {
  // Pointers cannot cross the wire; encoding must refuse, not silently
  // drop the facility model (that would change results).
  JobSpec spec = sample_spec();
  const power::ConstantPue facility(1.5);
  spec.config.facility_model = &facility;
  EXPECT_THROW(encode_job(spec), Error);
}

/// A two-center MetaSpec exercising every per-center wire field.
std::shared_ptr<const meta::MetaSpec> sample_meta() {
  meta::MetaSpec m;
  m.router = "balanced-cost";
  m.move_penalty = 900;
  m.route_horizon = 6 * kSecondsPerHour;
  meta::CenterSpec west;
  west.name = "west";
  west.nodes = 512;
  west.trace_share = 2.0;
  west.pricing.off_peak_price = 0.028;
  west.pricing.ratio = 4.5;
  west.policy.name = "greedy";
  meta::CenterSpec east;
  east.name = "east";
  east.trace_share = 1.0;
  east.pricing.tz_offset_min = 12 * 60;
  east.policy.name = "knapsack";
  m.centers = {west, east};
  return std::make_shared<const meta::MetaSpec>(std::move(m));
}

TEST(WireMetaTest, MetaSpecRoundTripIsExact) {
  JobSpec spec = sample_spec();
  spec.pricing.tz_offset_min = -300;
  spec.meta = sample_meta();
  spec.meta_center = 1;
  const JobSpec back = decode_job(encode_job(spec));
  EXPECT_EQ(back.pricing, spec.pricing);  // tz_offset_min included
  EXPECT_EQ(back.meta_center, 1u);
  ASSERT_NE(back.meta, nullptr);
  EXPECT_EQ(*back.meta, *spec.meta);  // field-by-field (defaulted ==)
  // And the absence of a meta block round-trips as absence.
  const JobSpec plain = decode_job(encode_job(sample_spec()));
  EXPECT_EQ(plain.meta, nullptr);
}

TEST(WireMetaTest, DecodeRejectsUnknownRouterNamingIt) {
  // encode_job validates too, so the bad payload has to be hand-crafted:
  // mirror the codec's exact field order with a raw ByteWriter, splicing
  // in a router name no registry knows.
  const JobSpec s = sample_spec();
  ByteWriter w;
  w.str(s.trace.source);
  w.str(s.trace.swf_path);
  w.u64(s.trace.months);
  w.u64(s.trace.seed);
  w.f64(s.trace.power_ratio);
  w.u8(s.trace.force_power_ratio ? 1 : 0);
  w.u64(s.trace.power_seed);
  w.str(s.pricing.model);
  w.f64(s.pricing.off_peak_price);
  w.f64(s.pricing.ratio);
  w.i64(s.pricing.tz_offset_min);
  w.str(s.policy.name);
  // SimConfig block, mirroring encode_config field for field.
  w.i64(s.config.tick_interval);
  w.u64(s.config.scheduler.window_size);
  w.u8(s.config.scheduler.backfill_beyond_window ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(s.config.scheduler.backfill_mode));
  w.u64(s.config.scheduler.conservative_depth);
  w.i64(s.config.scheduler.starvation_age);
  w.f64(s.config.idle_watts_per_node);
  w.u8(s.config.contiguous_allocation ? 1 : 0);
  w.u8(s.config.honor_queue_priority ? 1 : 0);
  w.u8(s.config.honor_dependencies ? 1 : 0);
  w.u64(s.config.max_passes_per_tick);
  w.u8(s.config.record_daily_curves ? 1 : 0);
  w.u64(s.config.daily_curve_bins);
  w.str(s.label);
  w.u8(1);  // meta present
  w.u32(0);
  w.str("wormhole");  // unknown router
  w.i64(0);
  w.i64(3600);
  w.u32(1);
  w.str("solo");
  w.i64(0);
  w.f64(1.0);
  w.str("paper");
  w.f64(0.03);
  w.f64(3.0);
  w.i64(0);
  w.str("fcfs");
  try {
    decode_job(w.take());
    FAIL() << "unknown router accepted across the wire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wormhole"), std::string::npos) << what;
    EXPECT_NE(what.find("cheapest-now"), std::string::npos) << what;
  }
}

TEST(WireMetaTest, DecodeRejectsOutOfRangeCenterNamingCenters) {
  JobSpec spec = sample_spec();
  spec.meta = sample_meta();
  spec.meta_center = 1;
  std::vector<std::uint8_t> payload = encode_job(spec);
  // The center index is the u32 right after the meta flag byte; patch it
  // out of range. Find it by re-encoding with center 0 and diffing.
  spec.meta_center = 0;
  const std::vector<std::uint8_t> zero = encode_job(spec);
  ASSERT_EQ(payload.size(), zero.size());
  std::size_t index_at = payload.size();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] != zero[i]) {
      index_at = i;
      break;
    }
  }
  ASSERT_LT(index_at, payload.size());
  payload[index_at] = 9;  // center 9 of 2
  try {
    decode_job(payload);
    FAIL() << "out-of-range center accepted across the wire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("west"), std::string::npos) << what;
    EXPECT_NE(what.find("east"), std::string::npos) << what;
  }
}

TEST(WireMetaTest, EncodeValidatesTooSoAClientFailsFast) {
  JobSpec spec = sample_spec();
  auto bad = std::make_shared<meta::MetaSpec>(*sample_meta());
  bad->centers[0].policy.name = "telekinesis";
  spec.meta = std::move(bad);
  EXPECT_THROW(encode_job(spec), Error);
}


// ---- share group tasks and their outcomes ------------------------------

/// Three price variants of sample_spec: one share group, leader first.
std::vector<JobSpec> sample_group() {
  std::vector<JobSpec> members = {sample_spec(), sample_spec(), sample_spec()};
  members[1].pricing.ratio = 2.0;
  members[1].label = "r2";
  members[2].pricing.off_peak_price = 0.05;
  members[2].label = "p5";
  return members;
}

/// A small hand-made result (the outcome codec never looks inside it).
sim::SimResult small_result() {
  sim::SimResult r;
  r.policy_name = "greedy";
  r.trace_name = "tiny";
  r.system_nodes = 8;
  r.horizon_end = 86400;
  sim::JobRecord rec;
  rec.id = 1;
  rec.finish = 600;
  rec.nodes = 4;
  rec.power_per_node = 250.0;
  r.records = {rec, rec};
  r.records[1].id = 2;
  r.total_bill = 1.25;
  r.daily_bills = {1.25};
  return r;
}

std::vector<Outcome> sample_outcomes() {
  std::vector<Outcome> out(3);
  out[0].result = encode_result(small_result());
  out[1].ok = false;
  out[1].error = "on/off ratio must be >= 1";
  out[2].result = encode_result(small_result());
  return out;
}

std::vector<std::uint8_t> u32_bytes(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
}

std::vector<std::uint8_t> u64_bytes(std::uint64_t v) {
  std::vector<std::uint8_t> out = u32_bytes(static_cast<std::uint32_t>(v));
  const std::vector<std::uint8_t> high =
      u32_bytes(static_cast<std::uint32_t>(v >> 32));
  out.insert(out.end(), high.begin(), high.end());
  return out;
}

/// A task's sweep scope, as run::CellQueue would draw it.
constexpr std::uint64_t kSampleScope = 0x0123456789abcdefULL;

TEST(WireTaskTest, TaskRoundTripsLeaderFirst) {
  const std::vector<JobSpec> members = sample_group();
  const Task task{kSampleScope, members};
  const std::vector<std::uint8_t> bytes = encode_task(task);
  // u64 scope, u32 n, then the same length-prefixed encode_job blobs
  // kSubmit nests.
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 8),
            u64_bytes(kSampleScope));
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin() + 8, bytes.begin() + 12),
            u32_bytes(3));
  const Task back = decode_task(bytes);
  EXPECT_EQ(back.scope, kSampleScope);
  ASSERT_EQ(back.members.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cell_key(back.members[i]), cell_key(members[i]));
    EXPECT_EQ(back.members[i].label, members[i].label);
  }
  EXPECT_EQ(encode_task(back), bytes);
}

TEST(WireTaskTest, DecodeRejectsMalformedTasks) {
  // Too short to hold the scope and the count.
  std::vector<std::uint8_t> bytes = encode_task({kSampleScope, sample_group()});
  for (const std::ptrdiff_t size : {0, 7, 8, 11}) {
    EXPECT_THROW(decode_task(std::vector<std::uint8_t>(
                     bytes.begin(), bytes.begin() + size)),
                 Error)
        << size << " bytes";
  }
  // No members.
  std::vector<std::uint8_t> empty = u64_bytes(kSampleScope);
  const std::vector<std::uint8_t> zero = u32_bytes(0);
  empty.insert(empty.end(), zero.begin(), zero.end());
  EXPECT_THROW(decode_task(empty), Error);
  // A count that runs past the payload.
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  EXPECT_THROW(decode_task(bytes), Error);
  // Member 2 of `members` is rejected, named by its label.
  const auto expect_member_2_rejected = [](const std::vector<JobSpec>& members,
                                           const std::string& why) {
    try {
      decode_task(encode_task({kSampleScope, members}));
      FAIL() << "a task with " << why << " decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("member 2 (\"" +
                                           members[2].label + "\")"),
                std::string::npos)
          << e.what();
    }
  };
  // A member on another trajectory (a different policy).
  std::vector<JobSpec> members = sample_group();
  members[2].policy.name = "fcfs";
  expect_member_2_rejected(members, "mixed trajectories");
  // The centers of one scenario are one group, whatever their index or
  // their cell's own tariff and policy.
  std::vector<JobSpec> centers = sample_group();
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers[i].meta = sample_meta();
    centers[i].meta_center = static_cast<std::uint32_t>(i % 2);
  }
  centers[1].policy.name = "fcfs";
  EXPECT_EQ(decode_task(encode_task({kSampleScope, centers})).members.size(),
            centers.size());
  // A center of another scenario, a center over another trace, and a
  // single-site member are not.
  members = centers;
  auto other = std::make_shared<meta::MetaSpec>(*sample_meta());
  other->move_penalty += 60;
  members[2].meta = other;
  expect_member_2_rejected(members, "another scenario's center");
  members = centers;
  members[2].trace.seed += 1;
  expect_member_2_rejected(members, "a center over another trace");
  members = centers;
  members[2].meta = nullptr;
  expect_member_2_rejected(members, "a single-site member");
  // Nor is a single-site leader's member a scenario's center.
  members = sample_group();
  members[2] = centers[2];
  expect_member_2_rejected(members, "a center under a single-site leader");
  // More members than a task may carry, though every blob is well formed.
  const std::vector<JobSpec> many(kMaxTaskMembers + 1, sample_group().front());
  EXPECT_THROW(encode_task({kSampleScope, many}), Error);
  const std::vector<std::uint8_t> blob = encode_job(many.front());
  bytes = u64_bytes(kSampleScope);
  const std::vector<std::uint8_t> count = u32_bytes(kMaxTaskMembers + 1);
  bytes.insert(bytes.end(), count.begin(), count.end());
  for (std::size_t i = 0; i < many.size(); ++i) {
    const std::vector<std::uint8_t> size = u32_bytes(
        static_cast<std::uint32_t>(blob.size()));
    bytes.insert(bytes.end(), size.begin(), size.end());
    bytes.insert(bytes.end(), blob.begin(), blob.end());
  }
  EXPECT_THROW(decode_task(bytes), Error);
}

TEST(WireTaskTest, OutcomesRoundTripVerbatim) {
  const std::vector<Outcome> outcomes = sample_outcomes();
  const std::vector<std::uint8_t> bytes = encode_outcomes(outcomes);
  const std::vector<Outcome> back = decode_outcomes(bytes);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back[i].ok, outcomes[i].ok);
    EXPECT_EQ(back[i].result, outcomes[i].result);
    EXPECT_EQ(back[i].error, outcomes[i].error);
  }
  EXPECT_TRUE(results_identical(decode_result(back[2].result), small_result()));

  EXPECT_THROW(decode_outcomes(u32_bytes(0)), Error);
  std::vector<std::uint8_t> bad_tag = bytes;
  bad_tag[4] = 2;
  EXPECT_THROW(decode_outcomes(bad_tag), Error);
  std::vector<std::uint8_t> long_count = bytes;
  long_count[0] = 4;
  EXPECT_THROW(decode_outcomes(long_count), Error);
  // More outcomes than a task has members, though each is well formed.
  std::vector<Outcome> many(kMaxTaskMembers + 1, outcomes.front());
  std::vector<std::uint8_t> too_many = encode_outcomes(many);
  EXPECT_THROW(decode_outcomes(too_many), Error);
  many.pop_back();
  EXPECT_EQ(decode_outcomes(encode_outcomes(many)).size(), kMaxTaskMembers);
}

// ---- seeded mutation of the task and outcome decoders ------------------
//
// The seed corpus lives in tests/corpus/wire as hex files (whitespace
// and '#' comment lines ignored). To regenerate it after a deliberate
// encoding change, run wire_test with ESCHED_WRITE_WIRE_CORPUS set to
// that directory.

std::string corpus_path(const std::string& name) {
  return std::string(ESCHED_WIRE_CORPUS_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_hex(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::uint8_t> bytes;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    std::string digits;
    for (const char c : line) {
      if (std::isxdigit(static_cast<unsigned char>(c)) != 0) digits += c;
    }
    for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
      bytes.push_back(static_cast<std::uint8_t>(
          std::stoul(digits.substr(i, 2), nullptr, 16)));
    }
  }
  return bytes;
}

void write_hex(const std::string& path, const std::string& comment,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path);
  out << "# " << comment << "\n";
  static const char* kDigits = "0123456789abcdef";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out << kDigits[bytes[i] >> 4] << kDigits[bytes[i] & 15];
    if (i % 32 == 31 || i + 1 == bytes.size()) out << "\n";
  }
}

struct CorpusEntry {
  const char* file;
  bool task;  ///< decode_task if true, decode_outcomes otherwise
};

constexpr CorpusEntry kCorpus[] = {
    {"task_singleton.hex", true},
    {"task_group.hex", true},
    {"task_meta.hex", true},
    {"outcomes_mixed.hex", false},
};

void maybe_write_corpus() {
  const char* dir = std::getenv("ESCHED_WRITE_WIRE_CORPUS");
  if (dir == nullptr || *dir == '\0') return;
  const std::string d = dir;
  JobSpec meta = sample_spec();
  meta.meta = sample_meta();
  write_hex(d + "/task_singleton.hex", "kJob payload: a singleton task",
            encode_task({kSampleScope, {sample_spec()}}));
  write_hex(d + "/task_group.hex", "kJob payload: three price variants",
            encode_task({kSampleScope, sample_group()}));
  write_hex(d + "/task_meta.hex", "kJob payload: a meta cell and its equal",
            encode_task({kSampleScope, {meta, meta}}));
  write_hex(d + "/outcomes_mixed.hex",
            "kResult payload: result, error, result",
            encode_outcomes(sample_outcomes()));
}

/// Re-encode what a decoder accepted.
std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& bytes,
                                     bool task) {
  return task ? encode_task(decode_task(bytes))
              : encode_outcomes(decode_outcomes(bytes));
}

/// One random edit: flip a bit, set a byte, overwrite a u32 with a
/// boundary value, truncate, insert, delete or duplicate a span.
void mutate(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const auto at = [&bytes](std::size_t i) {
    return bytes.begin() + static_cast<std::ptrdiff_t>(i);
  };
  static const std::uint32_t kBoundaries[] = {0, 1, 2, 0x7f, 0x80, 0xff,
                                              0xffff, 0x7fffffff, 0xffffffff};
  switch (rng() % 7) {
    case 0:
      if (!bytes.empty()) {
        std::uint8_t& b = bytes[pick(bytes.size())];
        b = static_cast<std::uint8_t>(b ^ (1u << (rng() % 8)));
      }
      break;
    case 1:
      if (!bytes.empty()) {
        bytes[pick(bytes.size())] = static_cast<std::uint8_t>(rng());
      }
      break;
    case 2:
      if (bytes.size() >= 4) {
        const std::vector<std::uint8_t> v = u32_bytes(kBoundaries[pick(9)]);
        std::copy(v.begin(), v.end(), at(pick(bytes.size() - 3)));
      }
      break;
    case 3:
      bytes.resize(pick(bytes.size() + 1));
      break;
    case 4: {
      const std::size_t where = pick(bytes.size() + 1);
      for (std::size_t n = 1 + pick(8); n > 0; --n) {
        bytes.insert(at(where), static_cast<std::uint8_t>(rng()));
      }
      break;
    }
    case 5:
      if (!bytes.empty()) {
        const std::size_t from = pick(bytes.size());
        const std::size_t n =
            1 + pick(std::min<std::size_t>(16, bytes.size() - from));
        bytes.erase(at(from), at(from + n));
      }
      break;
    default:
      if (!bytes.empty()) {
        const std::size_t from = pick(bytes.size());
        const std::size_t n =
            1 + pick(std::min<std::size_t>(32, bytes.size() - from));
        const std::vector<std::uint8_t> span(at(from), at(from + n));
        bytes.insert(at(pick(bytes.size() + 1)), span.begin(), span.end());
      }
      break;
  }
}

TEST(WireMutationTest, CorpusDecodesAndReEncodesExactly) {
  maybe_write_corpus();
  for (const CorpusEntry& entry : kCorpus) {
    const std::vector<std::uint8_t> bytes = read_hex(corpus_path(entry.file));
    ASSERT_FALSE(bytes.empty()) << entry.file;
    EXPECT_EQ(round_trip(bytes, entry.task), bytes) << entry.file;
  }
}

TEST(WireMutationTest, DecodersRejectOrReEncodeEveryMutant) {
  // Fixed seed and budget: the same mutants every run. A decoder must
  // either reject a mutant with esched::Error or accept exactly what it
  // would itself encode — anything else is a decoder bug to fix there.
  constexpr int kMutantsPerEntry = 4000;
  std::mt19937_64 rng(0x5eedc0de);
  std::size_t accepted = 0;
  for (const CorpusEntry& entry : kCorpus) {
    const std::vector<std::uint8_t> seed = read_hex(corpus_path(entry.file));
    ASSERT_FALSE(seed.empty()) << entry.file;
    for (int i = 0; i < kMutantsPerEntry; ++i) {
      std::vector<std::uint8_t> mutant = seed;
      for (std::uint64_t edits = 1 + rng() % 3; edits > 0; --edits) {
        mutate(mutant, rng);
      }
      std::vector<std::uint8_t> again;
      try {
        again = round_trip(mutant, entry.task);
      } catch (const Error&) {
        continue;  // rejected
      } catch (const std::exception& e) {
        FAIL() << entry.file << " mutant " << i << " threw a non-esched "
               << "exception: " << e.what();
      }
      ++accepted;
      ASSERT_EQ(again, mutant) << entry.file << " mutant " << i
                               << " decoded into something else";
    }
  }
  // Mutations that keep the payload valid (an edited label, price or
  // error text) must occur, or the test only ever exercised rejection.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace esched::run::wire
