// The multi-machine twin of run::SubprocessPool: fan sweep cells out to
// esched-agentd processes over TCP.
//
// One DistributedPool drives N agents from a single-threaded poll()
// loop, exactly like the subprocess supervisor drives worker pipes — no
// locks, no signal handlers (SIGPIPE ignored for the duration of run()).
// The agent lifecycle (handshake, heartbeats, task deadlines, reconnect
// backoff, corruption handling) is net::AgentFleet's, shared with the
// esched-coordinator daemon; the pool owns the per-run tasks (one per share
// group, run::PoolRun), result decoding and progress. Its failure model is the
// subprocess supervisor's: a lost connection or kFail requeues the attempt
// under the ledger's budget, a kError fails the sweep fast, and an agent that
// fails `connect_attempts` consecutive connects is abandoned — the sweep fails
// only when *no* usable agent remains.
//
// Determinism: cells are rebuilt from declarative JobSpecs by whichever
// agent runs them, results are stored by submission index, and retried
// attempts rerun the same deterministic simulation — so a TCP sweep is
// bit-identical (results_identical) to the in-process 1-thread
// reference, including when agents are SIGKILLed mid-sweep
// (distributed_test and the distributed-determinism CI job pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/agent_fleet.hpp"
#include "net/socket.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::net {

/// Pool knobs: the shared fleet knobs plus the pool's connect budget.
struct DistributedPoolConfig : FleetConfig {
  /// Consecutive failed connect attempts before an agent is abandoned
  /// for the rest of the run (a successful handshake resets the count).
  /// Must be >= 1.
  std::uint32_t connect_attempts = 5;
};

/// The TCP twin of SubprocessPool. One instance may run() multiple
/// sweeps; connections are opened per run and closed before run returns.
class DistributedPool {
 public:
  explicit DistributedPool(DistributedPoolConfig config);

  /// True when at least one agent accepts a TCP connection within
  /// `timeout_seconds` (per agent). The cheap reachability probe behind
  /// bench/common's graceful fallback; no handshake is performed.
  static bool any_agent_reachable(const std::vector<HostPort>& agents,
                                  double timeout_seconds = 0.5);

  /// Execute every spec; results in submission order, bit-identical to
  /// the in-process reference. Throws esched::Error when a cell exhausts
  /// its attempt budget, when an agent reports a deterministic kError,
  /// or when no usable agent remains. All connections are closed before
  /// any throw.
  std::vector<sim::SimResult> run(const std::vector<run::JobSpec>& sweep);

  /// Counters from the most recent run(). threads is the slot total
  /// across agents that completed a handshake; worker_busy_seconds is
  /// indexed by agent (coordinator-observed round-trip times of
  /// successful attempts); agent_liveness holds each agent's final
  /// health state (alive/suspect/dead/connecting) with its last
  /// heartbeat age — the fleet picture a driver prints when a sweep
  /// limps home on a subset of its agents.
  const run::SweepStats& last_stats() const { return stats_; }

  /// Same contract as SweepRunner::set_progress; calls arrive on the
  /// coordinating thread.
  void set_progress(run::ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Optional tracer: one track per agent (2000 + agent index) carrying
  /// a complete span per remote cell round-trip and per connection
  /// lifetime. Non-owning; must outlive run().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Optional fleet telemetry sink. When set, the session hello carries
  /// kHelloFlagTelemetry, every kTelemetry frame an agent sends back is
  /// ingested under "agent.<index>.<role>" with the clock offset
  /// estimated from the handshake (mid-RTT local clock vs the agent's
  /// kWelcome steady clock), and each unique cell is dispatched with a
  /// trace context (JobSpec::trace_id/parent_span_id) so remote simulate
  /// spans stitch under the coordinator's dispatch spans. Non-owning;
  /// must outlive run(). Telemetry never affects results: SimResult
  /// bytes are identical with it on or off.
  void set_telemetry(obs::FleetAggregator* fleet) { fleet_ = fleet; }

 private:
  DistributedPoolConfig config_;
  run::SweepStats stats_;
  run::ProgressCallback progress_;
  obs::Tracer* tracer_ = nullptr;
  obs::FleetAggregator* fleet_ = nullptr;
};

}  // namespace esched::net
