#include "obs/tracer.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/minijson.hpp"

namespace esched::obs {

namespace {

/// Process-wide trace-track id per OS thread. Chrome's B/E pairing is
/// per-tid, and span nesting is only guaranteed well-formed within one
/// thread, so the thread IS the track. Ids are dealt at first use; 0 is
/// reserved so tids read naturally in the viewer.
std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

std::string render_tick_json(const TickRecord& record) {
  std::ostringstream line;
  line.precision(std::numeric_limits<double>::max_digits10);
  // Fixed key order — the JSONL schema documented in DESIGN.md; tests
  // (and humans with grep) rely on it.
  line << "{\"sim\": \"" << minijson::escape(record.sim)
       << "\", \"t\": " << record.time << ", \"period\": \""
       << record.period << "\", \"free_before\": " << record.free_before
       << ", \"free_after\": " << record.free_after
       << ", \"queue\": " << record.queue_length
       << ", \"passes\": " << record.passes << ", \"window\": [";
  for (std::size_t i = 0; i < record.window_ids.size(); ++i) {
    line << (i == 0 ? "" : ", ") << "{\"id\": " << record.window_ids[i]
         << ", \"power\": " << record.window_powers[i] << "}";
  }
  line << "], \"dispatched\": [";
  for (std::size_t i = 0; i < record.dispatched.size(); ++i) {
    line << (i == 0 ? "" : ", ") << record.dispatched[i];
  }
  line << "], \"reason\": \"" << record.reason << "\"}";
  return line.str();
}

Tracer::~Tracer() {
  // Destruction must not throw; close() only throws while enabled, and
  // a close() failure at destruction time has nobody left to tell.
  try {
    close();
  } catch (const Error&) {
  }
}

void Tracer::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  ESCHED_REQUIRE(!enabled_.load(std::memory_order_relaxed) &&
                     chrome_.rdbuf()->is_open() == false,
                 "Tracer::open called twice");
  path_ = path;
  jsonl_path_ = path + kDecisionLogSuffix;
  chrome_.open(path_);
  ESCHED_REQUIRE(chrome_.good(), "cannot open trace file " + path_);
  jsonl_.open(jsonl_path_);
  ESCHED_REQUIRE(jsonl_.good(),
                 "cannot open decision log " + jsonl_path_);
  chrome_ << "{\"traceEvents\": [\n";
  jsonl_.precision(std::numeric_limits<double>::max_digits10);
  first_event_ = true;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::emit_event(const std::string& name, const char* category,
                        char phase) {
  // tid is read outside the lock (thread_local), timestamp inside it so
  // ts is monotone in file order per thread.
  const std::uint32_t tid = this_thread_tid();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const double ts =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ts);
  chrome_ << (first_event_ ? "" : ",\n") << "{\"name\": \""
          << minijson::escape(name) << "\", \"cat\": \"" << category
          << "\", \"ph\": \"" << phase
          << "\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << buf
          << "}";
  first_event_ = false;
}

void Tracer::begin_span(const std::string& name, const char* category) {
  emit_event(name, category, 'B');
}

void Tracer::end_span(const std::string& name, const char* category) {
  emit_event(name, category, 'E');
}

void Tracer::complete_span(const std::string& name, const char* category,
                           std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::time_point end,
                           std::uint32_t track) {
  complete_span_for(1, track, name, category, begin, end);
}

void Tracer::complete_span_for(std::uint32_t pid, std::uint32_t track,
                               const std::string& name,
                               const char* category,
                               std::chrono::steady_clock::time_point begin,
                               std::chrono::steady_clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (begin < epoch_) begin = epoch_;
  if (end < begin) end = begin;
  const double ts =
      std::chrono::duration<double, std::micro>(begin - epoch_).count();
  const double dur =
      std::chrono::duration<double, std::micro>(end - begin).count();
  char ts_buf[64];
  char dur_buf[64];
  std::snprintf(ts_buf, sizeof ts_buf, "%.3f", ts);
  std::snprintf(dur_buf, sizeof dur_buf, "%.3f", dur);
  chrome_ << (first_event_ ? "" : ",\n") << "{\"name\": \""
          << minijson::escape(name) << "\", \"cat\": \"" << category
          << "\", \"ph\": \"X\", \"pid\": " << pid
          << ", \"tid\": " << track << ", \"ts\": " << ts_buf
          << ", \"dur\": " << dur_buf << "}";
  first_event_ = false;
}

void Tracer::process_name(std::uint32_t pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  chrome_ << (first_event_ ? "" : ",\n")
          << "{\"name\": \"process_name\", \"cat\": \"__metadata\", "
             "\"ph\": \"M\", \"pid\": "
          << pid << ", \"tid\": 0, \"args\": {\"name\": \""
          << minijson::escape(name) << "\"}}";
  first_event_ = false;
}

void Tracer::flow_event(char phase, std::uint64_t id,
                        const std::string& name, const char* category,
                        std::uint32_t pid, std::uint32_t track,
                        std::chrono::steady_clock::time_point at) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (at < epoch_) at = epoch_;
  const double ts =
      std::chrono::duration<double, std::micro>(at - epoch_).count();
  char ts_buf[64];
  std::snprintf(ts_buf, sizeof ts_buf, "%.3f", ts);
  chrome_ << (first_event_ ? "" : ",\n") << "{\"name\": \""
          << minijson::escape(name) << "\", \"cat\": \"" << category
          << "\", \"ph\": \"" << phase << "\", \"id\": " << id
          << ", \"pid\": " << pid << ", \"tid\": " << track
          << ", \"ts\": " << ts_buf
          << (phase == 'f' ? ", \"bp\": \"e\"}" : "}");
  first_event_ = false;
}

void Tracer::record_tick(const TickRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  jsonl_ << render_tick_json(record) << "\n";
  // Crash hygiene: every completed decision record reaches the disk
  // before the next tick runs, so a process killed mid-simulation (a
  // SIGKILLed sweep worker, an OOMed bench) leaves a parseable JSONL
  // prefix and a recoverable Chrome-event prefix instead of a torn line
  // in a stdio buffer. Tracing is not a hot path by contract.
  jsonl_.flush();
  chrome_.flush();
}

void Tracer::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  enabled_.store(false, std::memory_order_release);
  chrome_ << "\n]}\n";
  chrome_.flush();
  jsonl_.flush();
  const bool chrome_ok = chrome_.good();
  const bool jsonl_ok = jsonl_.good();
  chrome_.close();
  jsonl_.close();
  ESCHED_REQUIRE(chrome_ok, "failed writing trace file " + path_);
  ESCHED_REQUIRE(jsonl_ok, "failed writing decision log " + jsonl_path_);
}

}  // namespace esched::obs
