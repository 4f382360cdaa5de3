// Coordinator-side fleet telemetry aggregation: every kTelemetry frame a
// pool ingests lands here, keyed by the fully-qualified process label
// ("worker.0" for the subprocess pool, "agent.1.worker.0" /
// "agent.1.agentd" for the TCP pool, "coordinator" for the local
// process). merged() flattens the latest per-process Registry snapshots
// into one labeled fleet view plus fleet.* sums; stitch_into() replays
// every shipped span into the coordinator's Tracer under one synthetic
// Perfetto process group per fleet member, clock-aligned via the offsets
// estimated during the kHello/kWelcome handshake.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/telemetry.hpp"

namespace esched::obs {

class Tracer;

class FleetAggregator {
 public:
  /// Fold one shipment in. `label` is the fully-qualified process label;
  /// `clock_offset_nanos` is added to the shipment's span timestamps to
  /// re-base them onto this process's steady clock (0 for same-machine
  /// children, handshake-estimated for TCP agents). Snapshots are
  /// cumulative: per (label, pid) the highest-sequence one wins; spans
  /// are drained at the sender, so every ingest appends them.
  void ingest(const std::string& label, const Telemetry& telemetry,
              std::int64_t clock_offset_nanos);

  bool empty() const;

  /// One flat snapshot: "<label>.<name>" per process (counters summed
  /// across pids sharing a label — a respawned worker keeps its slot
  /// name) plus "fleet.<name>" sums across every process. Gauges are
  /// label-scoped only (summing gauges is meaningless); timer merges sum
  /// counts, totals and buckets, so fleet quantiles stay available.
  Registry::Snapshot merged() const;

  /// Registry::write_snapshot_json_file(merged(), path) — crash-safe.
  void write_json_file(const std::string& path) const;

  /// Replay every shipped span into `tracer`: one synthetic pid per
  /// label (pid 1 is the coordinator itself, labels get 2, 3, ... in
  /// sorted order) with a process_name metadata event, plus a flow-end
  /// event for spans carrying a flow id (a worker's task id + 1), so
  /// dispatch arrows land on the remote simulate spans. Stitched spans
  /// are drained, so a driver running several sweeps can stitch after
  /// each one without duplicating earlier spans (metric snapshots are
  /// cumulative and stay put).
  void stitch_into(Tracer& tracer);

 private:
  struct Process {
    Telemetry latest;
    std::vector<SpanRecord> spans;  ///< timestamps already re-based
  };

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::uint64_t>, Process> processes_;
};

}  // namespace esched::obs
