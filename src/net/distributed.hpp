// Multi-machine sweep execution: fan sweep cells out to esched-agentd
// processes over TCP.
//
// One DistributedPool drives N agents (net::AgentFleet, shared with the
// esched-coordinator daemon) through the one pool driver, run::PoolRun,
// that also drives run::SubprocessPool's worker slots — single-threaded,
// no locks, no signal handlers (SIGPIPE ignored for the duration of
// run()). The agent lifecycle (handshake, heartbeats, task deadlines,
// reconnect backoff, corruption handling) is the fleet's; the cells and
// the failure model are the driver's: a lost connection or kFail
// requeues the attempt's cells under their budgets, a kError fails the
// sweep fast, and an agent that fails `connect_attempts` consecutive
// connects is abandoned — the sweep fails only when *no* usable agent
// remains.
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
#include "run/pool_run.hpp"
#include "run/spec.hpp"
#include "sim/result.hpp"

namespace esched::net {

/// Pool knobs: the shared fleet knobs plus the pool's connect budget.
struct DistributedPoolConfig : FleetConfig {
  /// Consecutive failed connect attempts before an agent is abandoned
  /// for the rest of the run (a successful handshake resets the count).
  /// Must be >= 1.
  std::uint32_t connect_attempts = 5;
};

/// The TCP pool. One instance may run() multiple sweeps; connections are
/// opened per run and closed before run returns.
///
/// In last_stats(), threads is the slot total across agents that
/// completed a handshake; worker_busy_seconds is indexed by agent;
/// agent_liveness holds each agent's final health state
/// (alive/suspect/dead/connecting) with its last heartbeat age — the
/// fleet picture a driver prints when a sweep limps home on a subset of
/// its agents. Its tracer gets one track per agent (2000 + agent index)
/// carrying a complete span per remote cell round trip and per
/// connection lifetime. With a telemetry sink, the session hello carries
/// kHelloFlagTelemetry, every kTelemetry frame an agent sends back is
/// ingested under "agent.<index>.<role>" with the clock offset estimated
/// from the handshake (mid-RTT local clock vs the agent's kWelcome steady
/// clock), and each remote simulate span carries its task's flow id so
/// it stitches under the coordinator's dispatch span.
class DistributedPool : public run::PoolBase {
 public:
  explicit DistributedPool(DistributedPoolConfig config);

  /// Execute every spec; results in submission order, bit-identical to
  /// the in-process reference. Throws esched::Error when a cell exhausts
  /// its attempt budget, when an agent reports a deterministic kError,
  /// or when no usable agent remains. All connections are closed before
  /// any throw.
  std::vector<sim::SimResult> run(const std::vector<run::JobSpec>& sweep);

 private:
  DistributedPoolConfig config_;
};

}  // namespace esched::net
