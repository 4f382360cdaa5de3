#include "obs/telemetry.hpp"

#include <atomic>
#include <cstdlib>

#include <unistd.h>

namespace esched::obs {

namespace {

std::atomic<bool> g_telemetry_enabled{false};
std::atomic<std::uint64_t> g_sequence{0};

}  // namespace

void SpanBuffer::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> SpanBuffer::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.swap(spans_);
  return out;
}

std::uint64_t SpanBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

SpanBuffer& span_buffer() {
  static SpanBuffer buffer;
  return buffer;
}

bool telemetry_enabled() {
  return g_telemetry_enabled.load(std::memory_order_relaxed);
}

void set_telemetry_enabled(bool on) {
  g_telemetry_enabled.store(on, std::memory_order_relaxed);
}

void enable_telemetry_from_env() {
  const char* value = std::getenv("ESCHED_TELEMETRY");
  if (value == nullptr || value[0] == '\0' || value[0] == '0') return;
  set_telemetry_enabled(true);
  // Telemetry without counters would ship empty snapshots; the whole
  // point of the frame is bringing the Registry home.
  set_counters_enabled(true);
}

Telemetry collect_telemetry(const std::string& role) {
  Telemetry t;
  t.role = role;
  t.pid = static_cast<std::uint64_t>(::getpid());
  t.sequence = g_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
  t.metrics = Registry::global().snapshot();
  t.spans = span_buffer().drain();
  if (const std::uint64_t dropped = span_buffer().dropped(); dropped > 0) {
    t.metrics.counters["obs.spans_dropped"] = dropped;
  }
  return t;
}

}  // namespace esched::obs
