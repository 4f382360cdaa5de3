// The crash-safe sweep coordinator (the esched-coordinator daemon).
//
// Where DistributedPool (net/distributed.hpp) is a *per-run* fleet
// driver — one sweep, connections opened and closed inside run() — the
// coordinator is a long-lived service that multiplexes many client
// sweeps onto one persistent agent fleet and journals every completed
// cell to disk (svc/journal.hpp), keyed by the canonical run::cell_key:
//
//  * Clients connect over the same run/wire frame protocol the fleet
//    speaks: kHello (auth token) -> kWelcome, then kSubmit carrying a
//    sweep id plus the full JobSpec grid. The coordinator answers one
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
// Single-threaded poll() loop, like the agentd and the per-run pool;
// cells carry their own attempt budgets (RetryPolicy backoff) because
// they come and go dynamically.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/agent_fleet.hpp"
#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "obs/http_exposition.hpp"
#include "run/endpoint.hpp"
#include "run/fault.hpp"
#include "run/sweep.hpp"
#include "svc/journal.hpp"
#include "svc/ops.hpp"

namespace esched::svc {

/// Daemon knobs: the shared fleet knobs (whose auth_token is also
/// required of every client kHello; "" = no auth either way) plus the
/// service's own.
struct CoordinatorConfig : net::FleetConfig {
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 9655;  ///< 0 picks an ephemeral port
  /// Result journal path. Must be non-empty; created if absent,
  /// replayed and healed on start.
  std::string journal_path;
  /// Warn (once per process, with path and size) when the journal's
  /// durable size reaches this many bytes — the append-only file grows
  /// without bound until a future compaction pass exists, so operators
  /// get a nudge before replay time and disk use become a problem.
  /// 0 disables the warning.
  std::uint64_t journal_warn_bytes = 1ull << 30;
  /// Operational HTTP plane (/metrics, /healthz, /sweeps). Off by
  /// default; enabling it cannot change sweep results — the endpoints
  /// only *read* state between poll dispatches. http_port 0 picks an
  /// ephemeral port (printed on the ready line).
  bool http_enabled = false;
  std::uint16_t http_port = 0;
};

/// The daemon. start() binds and replays the journal; serve() runs the
/// poll loop forever (the process is stopped by signal — SIGKILL is the
/// *tested* shutdown path, that's the point of the journal).
class Coordinator : private net::FleetOwner {
 public:
  explicit Coordinator(CoordinatorConfig config);
  // fleet_ holds this object's address.
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Bind the listener, open + replay the journal, arm the fleet.
  /// Returns the bound port (for --port 0). Throws esched::Error on
  /// config/bind/journal errors.
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

  /// One client connection (handshake -> submit/attach -> streamed
  /// kCellDone). Mirrors the agentd's Client.
  struct Client {
    net::FrameConn conn;
    bool handshaken = false;
    bool closing = false;      ///< flush a rejection, then close
    std::string sweep_id;      ///< attached sweep ("" before submit)
    explicit Client(net::Fd fd) : conn(std::move(fd)) {}
  };

  /// One distinct cell (by cell_key) somewhere between queued and
  /// journaled. Carries its own attempt budget (the TaskLedger
  /// bookkeeping, inlined because cells come and go dynamically).
  struct Cell {
    std::vector<std::uint8_t> payload;  ///< encode_job bytes, reused per retry
    std::string label;                  ///< for failure diagnostics
    std::uint32_t attempts = 0;
    std::vector<std::string> failures;
    bool in_flight = false;
    Clock::time_point ready_at{};  ///< backoff gate while queued
    /// (sweep id, grid index) pairs waiting on this cell.
    std::vector<std::pair<std::string, std::size_t>> waiters;
  };

  /// One submitted sweep, resumable by id.
  struct Sweep {
    std::vector<std::string> keys;  ///< cell_key per grid index
    std::uint64_t client = 0;       ///< attached client (0 = detached)
    std::vector<bool> delivered;    ///< per grid index
    std::size_t delivered_count = 0;
    std::uint64_t simulated = 0;     ///< distinct cells simulated fresh
    std::uint64_t journal_hits = 0;  ///< total - simulated
    bool done = false;               ///< kSweepDone reached
    Clock::time_point submitted_at{};  ///< for /sweeps elapsed + ETA
  };

  // Poll loop plumbing.
  int next_timeout_ms(Clock::time_point now) const;
  void accept_clients();
  void on_client_event(std::uint64_t id, short revents);
  void process_client_frames(std::uint64_t id);
  void drop_client(std::uint64_t id, const std::string& why);
  void reap_closed();

  // Client protocol.
  void on_client_hello(std::uint64_t id, const run::wire::FrameHeader& header,
                       const std::vector<std::uint8_t>& body);
  void on_submit(std::uint64_t id, const std::vector<std::uint8_t>& body);
  void on_attach(std::uint64_t id, const std::vector<std::uint8_t>& body);
  void attach_client(std::uint64_t id, const std::string& sweep_id);
  /// Queue `frame` to client `id`, dropping the client when the send
  /// fails; false when it was dropped.
  bool send_client(std::uint64_t id, const std::vector<std::uint8_t>& frame);
  void send_error(std::uint64_t id, const std::string& message);
  void send_sweep_done(std::uint64_t id, const Sweep& sweep);
  void send_cell_done(std::uint64_t client, std::size_t index,
                      const std::string& key);
  void maybe_finish_sweep(const std::string& sweep_id);
  void fail_sweep(const std::string& sweep_id, const std::string& message);

  // Work management: the fleet's owner interface. Fleet task ids are
  // dispatch ids (in_flight_ keys).
  bool claim(Clock::time_point now, net::FleetWork& work) override;
  bool on_result(std::size_t agent, const run::Endpoint& slot,
                 std::vector<std::uint8_t> bytes,
                 Clock::time_point now) override;
  void on_transient(std::size_t task, const std::string& reason,
                    Clock::time_point now) override;
  void on_error(std::size_t task, const std::string& message) override;
  void fail_cell(const std::string& key, const std::string& message);

  obs::HttpResponse handle_http(const obs::HttpRequest& request);

  CoordinatorConfig config_;
  run::RetryPolicy retry_;
  net::Fd listener_;
  Journal journal_;
  obs::HttpServer http_;
  net::AgentFleet fleet_;
  Clock::time_point started_at_{};

  std::map<std::uint64_t, Client> clients_;
  std::uint64_t next_client_id_ = 1;

  std::map<std::string, std::vector<std::uint8_t>> store_;  ///< key -> result
  std::map<std::string, Cell> cells_;  ///< key -> queued/in-flight work
  std::deque<std::string> pending_;    ///< dispatch order (requeues at back)
  std::map<std::uint32_t, std::string> in_flight_;  ///< dispatch id -> key
  std::uint32_t next_dispatch_ = 0;
  std::map<std::string, Sweep> sweeps_;
};

}  // namespace esched::svc
