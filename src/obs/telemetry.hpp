// The fleet telemetry plane's data model: what one process (worker,
// agentd, or the coordinator itself) ships home in a kTelemetry frame —
// a Registry snapshot plus the trace spans it buffered since the last
// shipment. The wire codec lives in run/wire (obs stays dependency-free);
// the coordinator-side merge lives in obs/fleet.
//
// Everything here is off by default. Workers turn it on when the
// supervisor sets ESCHED_TELEMETRY=1 in their environment (the proc
// pool) or when the session hello requests it (the TCP agent path);
// nothing in this header feeds back into scheduling decisions, so
// enabling telemetry cannot perturb SimResult bytes.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace esched::obs {

/// One completed span buffered for shipment. Timestamps are absolute
/// steady-clock nanoseconds of the *recording* process; the coordinator
/// re-bases them with the per-agent clock offset estimated during the
/// kHello/kWelcome handshake before stitching them into its own trace.
struct SpanRecord {
  std::string name;
  std::string category;
  std::uint32_t track = 0;        ///< tid within the process's trace group
  std::uint64_t begin_nanos = 0;  ///< steady clock of the recording process
  std::uint64_t end_nanos = 0;
  /// Flow-binding id (0 = none): a worker's simulate span carries its
  /// task id + 1, the id of the supervisor's dispatch flow start, so the
  /// stitched trace can draw an arrow from the dispatch span to it.
  std::uint64_t flow_id = 0;
};

/// One process's telemetry shipment. `role` names the sender within its
/// parent's scope ("worker.M", "agentd"); the receiving layer prefixes
/// it with its own label ("agent.N.") so the fully-qualified fleet key
/// is assembled hop by hop.
struct Telemetry {
  std::string role;
  std::uint64_t pid = 0;
  /// Monotonic per-process shipment number; the aggregator keeps the
  /// highest-sequence snapshot per (label, pid) since counters are
  /// cumulative, not deltas.
  std::uint64_t sequence = 0;
  Registry::Snapshot metrics;
  std::vector<SpanRecord> spans;
};

/// Bounded buffer of spans awaiting shipment. Spans beyond the cap are
/// dropped (counted in `dropped()`) rather than growing without bound in
/// a worker whose supervisor never drains telemetry.
class SpanBuffer {
 public:
  static constexpr std::size_t kMaxSpans = 4096;

  void add(SpanRecord span);
  std::vector<SpanRecord> drain();
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

/// The process-wide buffer telemetry shipments drain.
SpanBuffer& span_buffer();

/// True when this process was asked to emit telemetry (ESCHED_TELEMETRY
/// set in the environment, or set_telemetry_enabled(true) — the agentd
/// path, where the request arrives in the session hello).
bool telemetry_enabled();
void set_telemetry_enabled(bool on);

/// Read ESCHED_TELEMETRY once and enable both telemetry and counters if
/// set. Called from worker/agentd main before the serve loop.
void enable_telemetry_from_env();

/// Assemble one shipment: the global Registry snapshot, the drained span
/// buffer, this process's pid and a fresh sequence number. `role` is the
/// sender's name within its parent's scope.
Telemetry collect_telemetry(const std::string& role);

}  // namespace esched::obs
