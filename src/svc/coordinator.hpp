// The crash-safe sweep coordinator (the esched-coordinator daemon).
//
// Where DistributedPool (net/distributed.hpp) is a *per-run* fleet
// driver — one sweep, connections opened and closed inside run() — the
// coordinator is a long-lived service that multiplexes many client
// sweeps onto one persistent agent fleet and journals every completed
// cell to disk (svc/journal.hpp), keyed by the canonical run::cell_key:
//
//  * Clients connect over the same run/wire frame protocol the fleet
//    speaks, served by net::SessionServer like esched-agentd's peers:
//    kHello (auth token) -> kWelcome, then kSubmit carrying a sweep id
//    plus the full JobSpec grid. The coordinator answers one
//    kCellDone per grid index (payload: the cell's SimResult bytes,
//    verbatim as journaled) and a final kSweepDone with the
//    simulated/journal-hit split.
//  * Results are deduplicated *across* sweeps, clients, and coordinator
//    incarnations: a cell whose cell_key is already in the journal is
//    served from memory without touching the fleet. Overlapping grids
//    from different clients therefore cost one simulation per distinct
//    cell, ever — and a coordinator SIGKILLed mid-sweep resumes after
//    restart by replaying the journal and re-simulating only the cells
//    whose records are absent (coordinator_test counts them).
//  * A fleet task is a share group (run::CellQueue, the pools' queue
//    too): a claimed cell takes along ready queued cells with its
//    run::share_key, up to wire::kMaxTaskMembers in all; the worker
//    simulates that trajectory once and re-bills the rest, and each
//    member is journaled under its own cell_key. A price-level grid
//    therefore costs one simulation per trajectory (per task of a larger
//    group), and a group with some members already journaled still
//    simulates once.
//  * The agent fleet is a net::AgentFleet kept alive across sweeps —
//    the same implementation DistributedPool drives per run, except that
//    the daemon never abandons an agent on connect failures (the fleet
//    is expected to come and go). Only a permanent rejection (version or
//    auth token mismatch) stops reconnect attempts, and an agent death
//    requeues its in-flight cells onto the survivors.
//  * A disconnected client's sweep keeps running. The client resumes
//    with kAttach (its sweep id): already-produced kCellDone frames are
//    re-sent, the rest stream as they finish. kSubmit is idempotent —
//    re-submitting an id with the identical grid behaves like kAttach.
//
// Single-threaded poll() loop, like the agentd and the per-run pool.
// Once every agent has rejected the daemon (token or version mismatch),
// every sweep waiting on the fleet fails with "no usable agents remain".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/agent_fleet.hpp"
#include "net/session_server.hpp"
#include "obs/http_exposition.hpp"
#include "run/cell_queue.hpp"
#include "run/endpoint.hpp"
#include "run/fault.hpp"
#include "svc/journal.hpp"
#include "svc/ops.hpp"

namespace esched::svc {

/// Daemon knobs: the shared fleet knobs (whose auth_token is also
/// required of every client kHello; "" = no auth either way), where the
/// daemon listens (the serving shell's options, default port 9655) and
/// the journal.
struct CoordinatorConfig : net::FleetConfig, net::ServeOptions {
  CoordinatorConfig() { port = 9655; }
  /// Result journal path. Must be non-empty; created if absent,
  /// replayed and healed on start.
  std::string journal_path;
  /// Warn (once per process, with path and size) when the journal's
  /// durable size reaches this many bytes — the append-only file grows
  /// without bound until a future compaction pass exists, so operators
  /// get a nudge before replay time and disk use become a problem.
  /// 0 disables the warning.
  std::uint64_t journal_warn_bytes = 1ull << 30;
};

/// The daemon. start() binds and replays the journal; serve() runs the
/// poll loop forever (the process is stopped by signal — SIGKILL is the
/// *tested* shutdown path, that's the point of the journal).
class Coordinator : private net::FleetOwner, private net::SessionOwner {
 public:
  explicit Coordinator(CoordinatorConfig config);
  // sessions_ and fleet_ hold this object's address.
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Start the HTTP plane (when enabled), open + replay the journal,
  /// bind the listener. Returns the bound port (for --port 0). Throws
  /// esched::Error on config/bind/journal errors.
  std::uint16_t start();

  [[noreturn]] void serve();

  /// One poll-loop iteration (exposed for tests that embed the
  /// coordinator instead of forking the binary).
  void step();

  /// Fleet health right now (run::AgentLiveness semantics).
  std::vector<run::AgentLiveness> fleet_liveness() const;

  /// Bound HTTP port (0 when the plane is disabled).
  std::uint16_t http_port() const { return http_.port(); }

  /// Operational-plane snapshots (what /healthz and /sweeps serve;
  /// exposed so tests can assert on content without HTTP).
  OpsHealth ops_health() const;
  OpsSweeps ops_sweeps() const;

 private:
  using Clock = run::EndpointClock;

  /// One submitted sweep, resumable by id.
  struct Sweep {
    std::vector<std::string> keys;  ///< cell_key per grid index
    std::uint64_t client = 0;       ///< attached session (0 = detached)
    std::vector<bool> delivered;    ///< per grid index
    std::size_t delivered_count = 0;
    std::uint64_t simulated = 0;     ///< distinct cells simulated fresh
    std::uint64_t journal_hits = 0;  ///< total - simulated
    bool done = false;               ///< kSweepDone reached
    Clock::time_point submitted_at{};  ///< for /sweeps elapsed + ETA
  };

  int next_timeout_ms(Clock::time_point now) const;

  // Client sessions (net::SessionOwner).
  std::size_t welcome_slots() const override;
  void on_session_frame(std::uint64_t id, const run::wire::FrameHeader& header,
                        std::vector<std::uint8_t>& body) override;
  void on_session_closed(std::uint64_t id, const std::string& why) override;

  // Client protocol.
  void on_submit(std::uint64_t id, const std::vector<std::uint8_t>& body);
  void on_attach(std::uint64_t id, const std::vector<std::uint8_t>& body);
  void attach_client(std::uint64_t id, const std::string& sweep_id);
  void send_error(std::uint64_t id, const std::string& message);
  void send_sweep_done(std::uint64_t id, const Sweep& sweep);
  bool send_cell_done(std::uint64_t client, std::size_t index,
                      const std::string& key);
  void maybe_finish_sweep(const std::string& sweep_id);
  void fail_sweep(const std::string& sweep_id, const std::string& message);

  // Work management: the fleet's owner interface over the cell queue.
  bool claim(Clock::time_point now, run::Dispatch& work) override;
  bool on_result(std::size_t agent, const run::Endpoint& slot,
                 std::vector<std::uint8_t> bytes,
                 Clock::time_point now) override;
  void on_transient(std::size_t task, const std::string& reason,
                    Clock::time_point now) override;
  void on_error(std::size_t task, const std::string& message) override;
  void fail_cells(const std::vector<run::SettledCell>& cells);
  void deliver(run::SettledCell& cell, std::uint32_t task,
               std::uint32_t attempt);

  CoordinatorConfig config_;
  net::SessionServer sessions_;
  Journal journal_;
  obs::HttpServer http_;
  net::AgentFleet fleet_;
  /// Every cell between submitted and journaled; its waiters are (sweep
  /// id, grid index) pairs.
  run::CellQueue queue_;
  Clock::time_point started_at_{};

  std::map<std::string, std::vector<std::uint8_t>> store_;  ///< key -> result
  std::map<std::string, Sweep> sweeps_;
};

}  // namespace esched::svc
