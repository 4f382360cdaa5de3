#include "obs/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "obs/tracer.hpp"

namespace esched::obs {

namespace {

std::chrono::steady_clock::time_point to_time_point(std::uint64_t nanos,
                                                    std::int64_t offset) {
  const std::int64_t based = static_cast<std::int64_t>(nanos) + offset;
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(based < 0 ? 0 : based));
}

void merge_timer(Registry::TimerValue& into,
                 const Registry::TimerValue& from) {
  into.count += from.count;
  into.total_nanos += from.total_nanos;
  for (std::size_t b = 0; b < into.buckets.size(); ++b) {
    into.buckets[b] += from.buckets[b];
  }
}

}  // namespace

void FleetAggregator::ingest(const std::string& label,
                             const Telemetry& telemetry,
                             std::int64_t clock_offset_nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  Process& proc = processes_[{label, telemetry.pid}];
  if (telemetry.sequence >= proc.latest.sequence) {
    const std::vector<SpanRecord> keep = std::move(proc.spans);
    proc.latest = telemetry;
    proc.spans = keep;
  }
  for (SpanRecord span : telemetry.spans) {
    span.begin_nanos = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(span.begin_nanos) + clock_offset_nanos);
    span.end_nanos = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(span.end_nanos) + clock_offset_nanos);
    proc.spans.push_back(std::move(span));
  }
}

bool FleetAggregator::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return processes_.empty();
}

Registry::Snapshot FleetAggregator::merged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Registry::Snapshot out;
  for (const auto& [key, proc] : processes_) {
    const std::string& label = key.first;
    for (const auto& [name, value] : proc.latest.metrics.counters) {
      out.counters[label + "." + name] += value;
      out.counters["fleet." + name] += value;
    }
    for (const auto& [name, value] : proc.latest.metrics.gauges) {
      out.gauges[label + "." + name] = value;
    }
    for (const auto& [name, value] : proc.latest.metrics.timers) {
      merge_timer(out.timers[label + "." + name], value);
      merge_timer(out.timers["fleet." + name], value);
    }
  }
  return out;
}

void FleetAggregator::write_json_file(const std::string& path) const {
  Registry::write_snapshot_json_file(merged(), path);
}

void FleetAggregator::stitch_into(Tracer& tracer) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Synthetic pids in sorted-label order: stable across runs regardless
  // of frame arrival order. Pid 1 is the coordinator's own trace group.
  std::set<std::string> labels;
  for (const auto& [key, proc] : processes_) labels.insert(key.first);
  std::map<std::string, std::uint32_t> pid_of;
  std::uint32_t next_pid = 2;
  for (const std::string& label : labels) {
    pid_of[label] = next_pid;
    tracer.process_name(next_pid, label);
    ++next_pid;
  }
  for (auto& [key, proc] : processes_) {
    const std::uint32_t pid = pid_of[key.first];
    for (const SpanRecord& span : proc.spans) {
      tracer.complete_span_for(pid, span.track, span.name,
                               span.category.c_str(),
                               to_time_point(span.begin_nanos, 0),
                               to_time_point(span.end_nanos, 0));
      if (span.flow_id != 0) {
        tracer.flow_event('f', span.flow_id, "cell", "flow", pid,
                          span.track, to_time_point(span.begin_nanos, 0));
      }
    }
    proc.spans.clear();
  }
}

}  // namespace esched::obs
