// Operational-plane view models + JSON renderers for the HTTP endpoints
// (/healthz, /sweeps) served by the fleet daemons.
//
// Kept separate from Coordinator/Agentd so the JSON contract is a pure
// function of plain structs: tests fake a fleet by filling these in, and
// both daemons render through the same code so operators see one schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "run/sweep.hpp"

namespace esched::svc {

/// Everything /healthz reports. `ok` is the liveness verdict an external
/// prober should alarm on: the process is serving its poll loop AND (for
/// a coordinator) no configured agent is dead.
struct OpsHealth {
  std::string role;  ///< "coordinator" | "agentd"
  double uptime_seconds = 0.0;
  std::vector<run::AgentLiveness> agents;  ///< empty for agentd
  bool has_journal = false;
  std::string journal_path;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_entries = 0;
  std::size_t clients = 0;     ///< live client/ worker-facing sessions
  std::size_t slots = 0;       ///< agentd: configured worker slots
  std::size_t busy_slots = 0;  ///< agentd: slots with a job in flight
  bool ok = true;
};

/// One active (or recently finished, still-attached) sweep for /sweeps.
struct OpsSweepInfo {
  std::string id;
  std::size_t total = 0;
  std::size_t delivered = 0;
  std::uint64_t simulated = 0;
  std::uint64_t journal_hits = 0;
  bool done = false;
  bool attached = false;  ///< a client is currently connected to it
  double elapsed_seconds = 0.0;
  /// Naive remaining-time estimate (SweepProgress semantics):
  /// elapsed / delivered * (total - delivered); 0 until progress exists.
  double eta_seconds = 0.0;
};

struct OpsSweeps {
  std::vector<OpsSweepInfo> sweeps;
  std::size_t cells_pending = 0;    ///< distinct cells queued
  std::size_t cells_in_flight = 0;  ///< distinct cells on the fleet now
};

std::string render_healthz(const OpsHealth& health);
std::string render_sweeps(const OpsSweeps& sweeps);

}  // namespace esched::svc
