// The agent fleet: one set of esched-agentd connections, driven from its
// owner's poll() loop.
//
// Both TCP planes run cells on agents the same way, so both drive this
// one implementation: net::DistributedPool (one sweep, connections opened
// and closed inside run()) and svc::Coordinator (a daemon whose fleet
// lives as long as the process). For every configured agent the fleet
// runs the whole lifecycle:
//
//  * connect, then kHello -> kWelcome with the protocol-version and auth
//    token check; a kError answer or a version mismatch is a permanent
//    rejection ("dead"), never retried;
//  * one run::Endpoint per slot the kWelcome announces; free slots pull
//    work from the owner (FleetOwner::claim) and carry it as kJob frames;
//  * kPing heartbeats: an agent that leaves heartbeat_misses pings
//    unanswered is declared dead even if its socket still looks open;
//  * per-task deadlines: a cell can't be killed remotely, so an expired
//    deadline retires the whole connection;
//  * any connection loss (EOF, I/O error, corruption, an answer for a
//    task the agent does not hold) hands every in-flight task back to the
//    owner and reconnects with capped exponential backoff;
//  * frame reassembly, the handshake clock-offset estimate, and (when a
//    FleetAggregator is attached) kTelemetry ingestion.
//
// The connect budget is the one behaviour that differs per owner: the
// pool abandons an agent after `connect_attempts` consecutive failed
// connects, the daemon never does (kNeverAbandon).
//
// Poll integration mirrors obs::HttpServer: call tick(now) and
// register_fds() before poll(), on_poll() after it, and bound the poll
// timeout with next_deadline(). Single-threaded; owner callbacks run on
// the caller's thread and may throw (the exception propagates out of
// tick()/on_poll(); the owner then tears the fleet down).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>

#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "run/endpoint.hpp"
#include "run/sweep.hpp"

namespace esched::obs {
class FleetAggregator;
class Tracer;
}  // namespace esched::obs

namespace esched::net {

/// Knobs shared by every fleet owner (DistributedPoolConfig and
/// svc::CoordinatorConfig inherit them). Defaults match the bench CLI
/// defaults (bench/common.cpp) so drivers and tests agree on behaviour.
struct FleetConfig {
  /// Agent addresses (host:port). Must be non-empty.
  std::vector<HostPort> agents;
  /// Shared secret carried in every kHello (net::Hello::token). Must
  /// match the agentd's --token / ESCHED_AUTH_TOKEN when the agent is
  /// configured with one; an empty token is accepted only by agents
  /// configured without one. A mismatch is a permanent rejection.
  std::string auth_token;
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
  /// TCP connect + handshake deadline per attempt.
  double connect_timeout_seconds = 5.0;
  /// kPing cadence per connected agent.
  double heartbeat_interval_seconds = 1.0;
  /// Unanswered pings before the agent is declared dead.
  std::uint32_t heartbeat_misses = 3;
  /// Reconnect backoff: initial delay, doubled per consecutive failure,
  /// capped at the max.
  double reconnect_initial_seconds = 0.1;
  double reconnect_max_seconds = 2.0;
};

/// What a fleet owner supplies (work) and receives (outcomes). A task is
/// identified by the id the owner returned from claim().
class FleetOwner {
 public:
  using Clock = run::EndpointClock;

  /// Claim the next ready task for a free slot (run::CellQueue::claim);
  /// false when none is dispatchable right now.
  virtual bool claim(Clock::time_point now, run::Dispatch& work) = 0;

  /// Agent `agent` answered `slot`'s task with result bytes (CRC already
  /// verified). Return false when the bytes are undecodable: the fleet
  /// then retires the connection and requeues the task.
  virtual bool on_result(std::size_t agent, const run::Endpoint& slot,
                         std::vector<std::uint8_t> bytes,
                         Clock::time_point now) = 0;

  /// Transient failure of one attempt (connection loss, timeout, kFail):
  /// requeue its cells under their attempt budgets.
  virtual void on_transient(std::size_t task, const std::string& reason,
                            Clock::time_point now) = 0;

  /// Deterministic kError from an agent: retrying cannot help.
  virtual void on_error(std::size_t task, const std::string& message) = 0;

 protected:
  ~FleetOwner() = default;
};

class AgentFleet {
 public:
  using Clock = run::EndpointClock;

  /// connect_attempts value meaning "retry forever".
  static constexpr std::uint32_t kNeverAbandon = 0;
  /// Remote-cell / connection-lifetime spans go on tracks 2000+agent so
  /// they collide neither with in-process worker tracks nor with the
  /// subprocess pool's 1000+slot tracks.
  static constexpr std::uint32_t kTrackBase = 2000;

  /// `config` and `owner` must outlive the fleet; so must `tracer`
  /// (connection-lifetime spans) and `telemetry` (kHelloFlagTelemetry +
  /// kTelemetry ingestion under "agent.<index>.<role>") when non-null.
  /// Every agent connects at the first tick().
  AgentFleet(const FleetConfig& config, std::uint32_t connect_attempts,
             FleetOwner& owner, obs::Tracer* tracer = nullptr,
             obs::FleetAggregator* telemetry = nullptr);

  /// Drive the clocks — reconnects, connect/handshake deadlines, task
  /// deadlines, heartbeats — then fill free slots from the owner.
  void tick(Clock::time_point now);

  /// Earliest instant tick() has work to do (time_point::max() if none);
  /// owners take the minimum with their own next ready-time.
  Clock::time_point next_deadline() const;

  /// Append the fds to poll; on_poll() must see the same array.
  void register_fds(std::vector<struct pollfd>& fds);
  void on_poll(const std::vector<struct pollfd>& fds);

  /// False once every agent is permanently gone (rejected, or out of
  /// connect budget).
  bool any_usable() const;
  /// "no usable agents remain (<addr>: <last error>; ...)": what a driver
  /// fails its open work with once any_usable() is false.
  std::string unusable_reason(Clock::time_point now) const;
  /// Slots on agents that completed a handshake and are still connected.
  std::size_t ready_slots() const;
  /// Those of the ready slots that hold no task: an owner bounds its poll
  /// by its next ready-time only while one is idle.
  std::size_t idle_slots() const;
  /// Largest ready_slots() seen since construction.
  std::size_t peak_slots() const { return peak_slots_; }

  /// Per-agent health (run::AgentLiveness), indexed like config.agents.
  std::vector<run::AgentLiveness> liveness(Clock::time_point now) const;

  /// Close every connection, ending open connection spans. Never throws.
  void disconnect_all(Clock::time_point now) noexcept;

 private:
  struct Agent {
    enum class State {
      kBackoff,      ///< waiting for retry_at before (re)connecting
      kConnecting,   ///< TCP connect in flight (poll for POLLOUT)
      kHandshaking,  ///< kHello sent, waiting for kWelcome
      kReady,        ///< handshake done; jobs and heartbeats flow
      kDead,         ///< abandoned for good
    };

    HostPort addr;
    State state = State::kBackoff;
    std::optional<FrameConn> conn;
    std::vector<run::Endpoint> slots;  ///< sized by the kWelcome slot count

    Clock::time_point retry_at{};          ///< kBackoff: next connect time
    Clock::time_point connect_deadline{};  ///< kConnecting/kHandshaking
    Clock::time_point connected_at{};      ///< kReady: for lifetime spans
    double backoff_seconds = 0.0;
    std::uint32_t connects_left = 0;
    bool ever_connected = false;

    Clock::time_point next_ping{};
    std::uint32_t ping_seq = 0;
    std::uint32_t pings_unanswered = 0;
    /// Last proof of life: the kWelcome, then every kPong.
    Clock::time_point last_pong{};

    /// When the kHello left, for the clock-offset estimate.
    Clock::time_point hello_sent{};
    /// Adding this to the agent's steady-clock nanos re-bases its span
    /// timestamps onto this process's steady clock.
    std::int64_t clock_offset_nanos = 0;

    std::string last_error;

    bool connected() const {
      return state == State::kHandshaking || state == State::kReady;
    }
  };

  void start_connect(std::size_t index, Clock::time_point now);
  void on_connect_writable(std::size_t index, Clock::time_point now);
  void connect_failure(std::size_t index, const std::string& error,
                       Clock::time_point now);
  void abandon(std::size_t index, const std::string& error);
  void connection_lost(std::size_t index, const std::string& reason,
                       Clock::time_point now);
  void back_off(Agent& a, Clock::time_point now);
  void requeue(std::size_t task, const std::string& reason,
               Clock::time_point now);
  void emit_connection_span(std::size_t index, Clock::time_point now);

  void dispatch(Clock::time_point now);
  void check_task_deadlines(Clock::time_point now);
  void check_heartbeats(Clock::time_point now);

  void on_readable(std::size_t index, Clock::time_point now);
  void on_handshake_frame(std::size_t index,
                          const run::wire::FrameHeader& header,
                          const std::vector<std::uint8_t>& body,
                          Clock::time_point now);
  void on_session_frame(std::size_t index,
                        const run::wire::FrameHeader& header,
                        std::vector<std::uint8_t>& body,
                        Clock::time_point now);

  /// "agent host:port", the prefix of every per-agent failure reason.
  std::string who(std::size_t index) const;

  const FleetConfig& config_;
  std::uint32_t connect_attempts_;
  FleetOwner& owner_;
  obs::Tracer* tracer_;
  obs::FleetAggregator* telemetry_;

  std::vector<Agent> agents_;
  std::size_t peak_slots_ = 0;
  /// Where register_fds() put the agent fds, and which agent each is.
  std::size_t poll_base_ = 0;
  std::vector<std::size_t> polled_;
};

}  // namespace esched::net
