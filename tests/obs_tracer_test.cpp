// Tests for the two-sink Tracer (src/obs/tracer.*): the Chrome trace is
// valid JSON with balanced B/E spans per thread track, the JSONL decision
// log round-trips with its documented fixed key order, and — the
// end-to-end contract — a simulation's decision log is consistent with
// the SimResult it produced (every started job appears in the dispatched
// set of its start tick, and nothing else does).
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/fcfs_policy.hpp"
#include "json_check.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// One parsed Chrome trace event (fields the balance check needs).
struct Event {
  std::string name;
  char phase = '?';
  long long tid = -1;
};

/// Parse the emitter's line-oriented Chrome trace: one event per line,
/// first line "{"traceEvents": [", last line "]}".
std::vector<Event> parse_chrome_events(const std::string& path) {
  std::vector<Event> events;
  for (const std::string& line : read_lines(path)) {
    const std::size_t name_at = line.find("{\"name\": \"");
    if (name_at == std::string::npos) continue;  // header/footer
    Event e;
    const std::size_t name_begin = name_at + 10;
    const std::size_t name_end = line.find("\", \"cat\"", name_begin);
    EXPECT_NE(name_end, std::string::npos) << line;
    e.name = line.substr(name_begin, name_end - name_begin);
    const std::size_t ph = line.find("\"ph\": \"");
    EXPECT_NE(ph, std::string::npos) << line;
    e.phase = line[ph + 7];
    const std::size_t tid = line.find("\"tid\": ");
    EXPECT_NE(tid, std::string::npos) << line;
    e.tid = std::stoll(line.substr(tid + 7));
    events.push_back(e);
  }
  return events;
}

/// Assert every track's B/E events nest like parentheses. "X" complete
/// events carry their own duration and cannot unbalance anything.
void expect_balanced_spans(const std::vector<Event>& events) {
  std::map<long long, std::vector<std::string>> stacks;
  for (const Event& e : events) {
    if (e.phase == 'X') continue;
    std::vector<std::string>& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else {
      ASSERT_EQ(e.phase, 'E') << e.name;
      ASSERT_FALSE(stack.empty()) << "E without B: " << e.name;
      EXPECT_EQ(stack.back(), e.name) << "mis-nested span";
      stack.pop_back();
    }
  }
  for (const auto& entry : stacks) {
    EXPECT_TRUE(entry.second.empty())
        << "unclosed span on tid " << entry.first;
  }
}

class ObsTracerTest : public ::testing::Test {
 protected:
  std::string trace_path(const char* stem) {
    return ::testing::TempDir() + stem + ".json";
  }
  void remove_outputs(const std::string& path) {
    std::remove(path.c_str());
    std::remove((path + Tracer::kDecisionLogSuffix).c_str());
  }
};

TEST_F(ObsTracerTest, DefaultConstructedTracerIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.begin_span("x", "test");
  tracer.end_span("x", "test");
  tracer.record_tick(TickRecord{});
  tracer.close();  // no-op, no throw
  // SpanGuard tolerates both a null and a disabled tracer.
  { SpanGuard null_guard(nullptr, "y", "test"); }
  { SpanGuard disabled_guard(&tracer, "z", "test"); }
}

TEST_F(ObsTracerTest, OpenFailureNamesThePath) {
  Tracer tracer;
  const std::string bad = "/nonexistent-dir-esched/trace.json";
  try {
    tracer.open(bad);
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(tracer.enabled());
}

TEST_F(ObsTracerTest, OpenTwiceIsAnError) {
  Tracer tracer;
  const std::string path = trace_path("obs_tracer_twice");
  tracer.open(path);
  EXPECT_THROW(tracer.open(path), Error);
  tracer.close();
  remove_outputs(path);
}

TEST_F(ObsTracerTest, ChromeTraceIsValidJsonWithBalancedSpans) {
  const std::string path = trace_path("obs_tracer_spans");
  {
    Tracer tracer;
    tracer.open(path);
    EXPECT_TRUE(tracer.enabled());
    {
      SpanGuard outer(&tracer, "outer", "test");
      SpanGuard inner(&tracer, "inner", "test");
    }
    tracer.begin_span("manual", "test");
    tracer.end_span("manual", "test");
    tracer.close();  // idempotent: the destructor will call it again
  }
  std::string error;
  EXPECT_TRUE(testjson::is_valid_json(read_file(path), &error)) << error;
  const std::vector<Event> events = parse_chrome_events(path);
  EXPECT_EQ(events.size(), 6u);
  expect_balanced_spans(events);
  remove_outputs(path);
}

TEST_F(ObsTracerTest, DecisionLogRoundTripsWithFixedKeyOrder) {
  const std::string path = trace_path("obs_tracer_jsonl");
  {
    Tracer tracer;
    tracer.open(path);
    TickRecord rec;
    rec.sim = "FCFS/test";
    rec.time = 1200;
    rec.period = "on_peak";
    rec.free_before = 64;
    rec.free_after = 16;
    rec.queue_length = 3;
    rec.passes = 2;
    rec.window_ids = {7, 9};
    rec.window_powers = {45.5, 60.25};
    rec.dispatched = {7};
    rec.reason = "machine_full";
    tracer.record_tick(rec);
  }  // destructor closes
  const std::vector<std::string> lines =
      read_lines(path + Tracer::kDecisionLogSuffix);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];

  std::string error;
  EXPECT_TRUE(testjson::is_valid_json(line, &error)) << error;

  // The documented key order (DESIGN.md): sim, t, period, free_before,
  // free_after, queue, passes, window, dispatched, reason.
  std::size_t last = 0;
  for (const char* key :
       {"\"sim\"", "\"t\"", "\"period\"", "\"free_before\"",
        "\"free_after\"", "\"queue\"", "\"passes\"", "\"window\"",
        "\"dispatched\"", "\"reason\""}) {
    const std::size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, last) << key << " out of order";
    last = at;
  }
  EXPECT_NE(line.find("\"sim\": \"FCFS/test\""), std::string::npos);
  EXPECT_NE(line.find("\"t\": 1200"), std::string::npos);
  EXPECT_NE(line.find("{\"id\": 7, \"power\": 45.5}"), std::string::npos);
  EXPECT_NE(line.find("\"dispatched\": [7]"), std::string::npos);
  EXPECT_NE(line.find("\"reason\": \"machine_full\""), std::string::npos);
  remove_outputs(path);
}

TEST_F(ObsTracerTest, CompleteSpanEmitsXEventsOnExplicitTracks) {
  const std::string path = trace_path("obs_tracer_complete");
  {
    Tracer tracer;
    tracer.open(path);
    const auto now = std::chrono::steady_clock::now();
    tracer.complete_span("worker:0", "proc", now,
                         now + std::chrono::milliseconds(5), 1000);
    // Overlapping span on the same track — legal for "X" events, which is
    // the whole reason complete_span exists (B/E must nest).
    tracer.complete_span("task:greedy#0", "proc", now,
                         now + std::chrono::milliseconds(3), 1000);
    // End before begin is clamped to a zero-length span, not negative.
    tracer.complete_span("clamped", "proc",
                         now + std::chrono::milliseconds(2), now, 1001);
    tracer.close();
  }
  std::string error;
  const std::string content = read_file(path);
  EXPECT_TRUE(testjson::is_valid_json(content, &error)) << error;
  const std::vector<Event> events = parse_chrome_events(path);
  ASSERT_EQ(events.size(), 3u);
  for (const Event& e : events) EXPECT_EQ(e.phase, 'X') << e.name;
  EXPECT_EQ(events[0].tid, 1000);
  EXPECT_EQ(events[2].tid, 1001);
  expect_balanced_spans(events);  // X events never unbalance
  // The clamped span must carry a non-negative duration.
  EXPECT_EQ(content.find("\"dur\": -"), std::string::npos);
  remove_outputs(path);
}

TEST_F(ObsTracerTest, EveryRecordIsDurableBeforeClose) {
  // Crash hygiene: both sinks are flushed after every record_tick, so a
  // process SIGKILLed mid-run (no destructor, no close()) still leaves
  // every already-recorded decision parseable on disk. Simulated here by
  // reading the files while the tracer is open with records buffered
  // in ofstreams that were never closed.
  const std::string path = trace_path("obs_tracer_durable");
  Tracer tracer;
  tracer.open(path);
  TickRecord rec;
  rec.sim = "FCFS/durability";
  rec.time = 600;
  rec.period = "off_peak";
  rec.dispatched = {1, 2};
  rec.reason = "queue_empty";
  tracer.record_tick(rec);
  rec.time = 1200;
  tracer.record_tick(rec);

  // Decision log: both lines fully on disk, each independently parseable
  // (that is what "a valid JSONL prefix" means).
  const std::vector<std::string> lines =
      read_lines(path + Tracer::kDecisionLogSuffix);
  ASSERT_EQ(lines.size(), 2u);
  std::string error;
  for (const std::string& line : lines) {
    EXPECT_TRUE(testjson::is_valid_json(line, &error)) << error;
    EXPECT_NE(line.find("\"sim\": \"FCFS/durability\""), std::string::npos);
  }
  // Chrome sink: flushed too. The file is a prefix (no "]}" footer yet) —
  // recoverable by appending the footer, which is the documented contract.
  const std::string chrome = read_file(path);
  EXPECT_NE(chrome.find("{\"traceEvents\": ["), std::string::npos);
  EXPECT_TRUE(testjson::is_valid_json(chrome + "]}", &error))
      << error << "\n"
      << chrome;

  tracer.close();
  remove_outputs(path);
}

TEST_F(ObsTracerTest, SimulationDecisionLogMatchesSimResult) {
  const trace::Trace month = trace::make_anl_bgp_like(1, 7);
  trace::Trace t(month.name(), month.system_nodes());
  for (std::size_t i = 0; i < 80; ++i) t.add_job(month[i]);
  power::assign_profiles(t, power::ProfileConfig{}, 7);
  power::OnOffPeakPricing pricing(0.03, 3.0);
  core::FcfsPolicy policy;

  const std::string path = trace_path("obs_tracer_sim");
  Tracer tracer;
  tracer.open(path);
  sim::SimConfig config;
  config.tracer = &tracer;
  const sim::SimResult result = sim::simulate(t, pricing, policy, config);
  tracer.close();

  // Chrome side: valid JSON, balanced phase spans.
  std::string error;
  EXPECT_TRUE(testjson::is_valid_json(read_file(path), &error)) << error;
  expect_balanced_spans(parse_chrome_events(path));

  // Decision side: rebuild time -> dispatched ids from the JSONL log.
  std::map<long long, std::set<long long>> dispatched_at;
  std::size_t total_dispatched = 0;
  for (const std::string& line :
       read_lines(path + Tracer::kDecisionLogSuffix)) {
    EXPECT_TRUE(testjson::is_valid_json(line, &error)) << error;
    const std::size_t t_at = line.find("\"t\": ");
    ASSERT_NE(t_at, std::string::npos);
    const long long tick_time = std::stoll(line.substr(t_at + 5));
    const std::size_t d_at = line.find("\"dispatched\": [");
    ASSERT_NE(d_at, std::string::npos);
    std::size_t cursor = d_at + 15;
    while (line[cursor] != ']') {
      if (line[cursor] == ',' || line[cursor] == ' ') {
        ++cursor;
        continue;
      }
      std::size_t consumed = 0;
      const long long id = std::stoll(line.substr(cursor), &consumed);
      dispatched_at[tick_time].insert(id);
      ++total_dispatched;
      cursor += consumed;
    }
  }

  // Every job's recorded start tick must have logged its dispatch, and
  // the log must contain nothing beyond the result's jobs (union ==).
  ASSERT_FALSE(result.records.empty());
  EXPECT_EQ(total_dispatched, result.records.size());
  for (const sim::JobRecord& r : result.records) {
    const auto tick = dispatched_at.find(r.start);
    ASSERT_NE(tick, dispatched_at.end())
        << "job " << r.id << " started at " << r.start
        << " but no tick logged a dispatch then";
    EXPECT_EQ(tick->second.count(r.id), 1u)
        << "job " << r.id << " missing from its start tick";
  }
  remove_outputs(path);
}

}  // namespace
}  // namespace esched::obs
