// The agent fleet: one set of esched-agentd connections, driven from its
// owner's poll() loop.
//
// Both TCP planes run cells on agents the same way, so both drive this
// one implementation: net::DistributedPool (one sweep, connections opened
// and closed inside run()) and svc::Coordinator (a daemon whose fleet
// lives as long as the process). Each agent is one net::SessionClient,
// which owns connect, handshake (version and token check; a rejection is
// permanent), the connect budget, reconnect backoff and the clock-offset
// estimate. On top of each open session the fleet runs:
//
//  * one run::Endpoint per slot the kWelcome announces; free slots pull
//    work from the owner (run::LaneOwner::claim) and carry it as kJob
//    frames;
//  * kPing heartbeats: an agent that leaves heartbeat_misses pings
//    unanswered is declared dead even if its socket still looks open;
//  * per-task deadlines: a cell can't be killed remotely, so an expired
//    deadline retires the whole connection;
//  * any connection loss (EOF, I/O error, corruption, an answer for a
//    task the agent does not hold) hands every in-flight task back to the
//    owner; the session client reconnects;
//  * (when a FleetAggregator is attached) kTelemetry ingestion, re-based
//    by the session's clock offset.
//
// The connect budget is the one behaviour that differs per owner: the
// pool abandons an agent after `connect_attempts` consecutive failed
// connects, the daemon never does (SessionClient::kNeverAbandon).
//
// The fleet is run::Lanes, one lane per agent, reporting to a
// run::LaneOwner: the pool's run::PoolRun drives it like worker slots,
// the coordinator from its own loop. Single-threaded; owner callbacks run
// on the caller's thread and may throw (the exception propagates out of
// tick()/on_poll(); the owner then tears the fleet down).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/session_client.hpp"
#include "net/socket.hpp"
#include "run/endpoint.hpp"
#include "run/pool_run.hpp"
#include "run/sweep.hpp"

namespace esched::obs {
class FleetAggregator;
class Tracer;
}  // namespace esched::obs

namespace esched::net {

/// Knobs shared by every fleet owner (DistributedPoolConfig and
/// svc::CoordinatorConfig inherit them), on top of the session client's
/// connect knobs. Defaults match the bench CLI defaults (bench/common.cpp)
/// so drivers and tests agree on behaviour.
struct FleetConfig : SessionClientConfig {
  /// Agent addresses (host:port). Must be non-empty.
  std::vector<HostPort> agents;
  /// Attempt budget per cell (first run + retries). Must be >= 1. Kept
  /// by the owner's run::CellQueue; the fleet only reports failures.
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k (1-based) is
  /// min(backoff_max_seconds, backoff_initial_seconds * 2^(k-1)).
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  /// Per-task wall-clock timeout; expiry retires the agent connection
  /// and requeues its in-flight cells. 0 disables the timeout.
  double task_timeout_seconds = 0.0;
  /// kPing cadence per connected agent.
  double heartbeat_interval_seconds = 1.0;
  /// Unanswered pings before the agent is declared dead.
  std::uint32_t heartbeat_misses = 3;
};

class AgentFleet final : public run::Lanes, private SessionClientOwner {
 public:
  using Clock = run::EndpointClock;
  /// Remote-cell / connection-lifetime spans go on tracks 2000+agent so
  /// they collide neither with in-process worker tracks nor with the
  /// subprocess pool's 1000+slot tracks.
  static constexpr std::uint32_t kTrackBase = 2000;

  /// `config` and `owner` must outlive the fleet; so must `tracer`
  /// (connection-lifetime spans) and `telemetry` (kHelloFlagTelemetry +
  /// kTelemetry ingestion under "agent.<index>.<role>") when non-null.
  /// `connect_attempts` is each agent's session budget
  /// (SessionClient::kNeverAbandon: retry forever). Every agent connects
  /// at the first tick().
  AgentFleet(const FleetConfig& config, std::uint32_t connect_attempts,
             run::LaneOwner& owner, obs::Tracer* tracer = nullptr,
             obs::FleetAggregator* telemetry = nullptr);
  // Every agent's session holds this object's address.
  AgentFleet(const AgentFleet&) = delete;
  AgentFleet& operator=(const AgentFleet&) = delete;

  // ---- Lanes: one lane per configured agent, indexed like
  // config.agents. The deadlines are the sessions' (reconnects,
  // connect/handshake), task deadlines and heartbeats; the idle lanes
  // are the free slots of ready agents. unusable_reason is "no usable
  // agents remain (<addr>: <last error>; ...)" once every agent is
  // permanently gone (rejected, or out of connect budget).
  void tick(Clock::time_point now) override;
  void register_fds(std::vector<struct pollfd>& fds) override;
  void on_poll(const std::vector<struct pollfd>& fds) override;
  Clock::time_point next_deadline() const override;
  std::size_t idle_lanes() const override;
  std::size_t lane_count() const override { return agents_.size(); }
  std::string unusable_reason(Clock::time_point now) const override;

  /// Slots on agents that completed a handshake and are still connected.
  std::size_t ready_slots() const;
  /// Largest ready_slots() seen since construction.
  std::size_t peak_slots() const { return peak_slots_; }

  /// Per-agent health (run::AgentLiveness), indexed like config.agents.
  std::vector<run::AgentLiveness> liveness(Clock::time_point now) const;

  /// Close every connection, ending open connection spans. Never throws.
  void disconnect_all(Clock::time_point now) noexcept;

 private:
  struct Agent {
    explicit Agent(SessionClient s) : session(std::move(s)) {}

    SessionClient session;
    std::vector<run::Endpoint> slots;  ///< sized by the kWelcome slot count
    Clock::time_point connected_at{};  ///< open session: for lifetime spans
    bool ever_connected = false;

    Clock::time_point next_ping{};
    std::uint32_t ping_seq = 0;
    std::uint32_t pings_unanswered = 0;
    /// Last proof of life: the kWelcome, then every kPong.
    Clock::time_point last_pong{};
  };

  // ---- SessionClientOwner: the agent index is the session id.
  void on_session_open(std::size_t index, const Welcome& welcome,
                       Clock::time_point now) override;
  void on_session_frame(std::size_t index,
                        const run::wire::FrameHeader& header,
                        std::vector<std::uint8_t>& body,
                        Clock::time_point now) override;
  void on_session_closed(std::size_t index, const std::string& why,
                         Clock::time_point now) override;

  void requeue(std::size_t index, const run::Endpoint& ep,
               const std::string& reason, Clock::time_point now);
  void emit_connection_span(std::size_t index, Clock::time_point now);

  void dispatch(Clock::time_point now);
  void check_task_deadlines(Clock::time_point now);
  void check_heartbeats(Clock::time_point now);

  /// "agent host:port", the prefix of every per-agent failure reason.
  std::string who(std::size_t index) const;

  const FleetConfig& config_;
  run::LaneOwner& owner_;
  obs::Tracer* tracer_;
  obs::FleetAggregator* telemetry_;

  std::vector<Agent> agents_;
  std::size_t peak_slots_ = 0;
};

}  // namespace esched::net
