// The client half of the framed session protocol (net/protocol.hpp) —
// the twin of net::SessionServer. net::AgentFleet (one client per agent)
// and svc::CoordinatorClient (one client per run) both open their
// sessions through it.
//
// A SessionClient is one connection to one HostPort, driven from its
// owner's poll() loop, and owns the whole session lifecycle:
//
//  * a non-blocking connect, then kHello (the token, plus the owner's
//    kHelloFlag* bits) and kWelcome, under one connect+handshake
//    deadline per attempt;
//  * the kWelcome checks: a kError answer or a kWelcome of another
//    protocol version is a permanent rejection ("dead"), never retried,
//    whose last_error() is the server's message verbatim;
//  * the budget: every failure before kWelcome (refused, timed out,
//    EOF, corruption, an unexpected frame) spends one unit of
//    `connect_attempts`, and the session is abandoned when none is left
//    (kNeverAbandon: never); a completed handshake restores the budget;
//    a loss after kWelcome backs off without spending;
//  * capped exponential reconnect backoff, reset by each handshake;
//  * the handshake clock-offset estimate;
//  * the payload bound: until kWelcome a frame header claiming more than
//    kMaxHelloPayload bytes fails the attempt before its body is
//    buffered; after it, wire::kMaxPayload.
//
// The owner hears only of sessions that passed the handshake, through
// SessionClientOwner: opened (with the Welcome), every later frame,
// closed (why). It answers with send() and close(). Poll integration
// mirrors SessionServer: register_fds() before poll(), on_poll() after
// it, tick() for the deadlines, one thread. Owner callbacks may throw;
// the exception propagates out of on_poll() (or send()/close()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"

namespace esched::net {

/// Connect knobs shared by every session client owner (FleetConfig and
/// svc::CoordinatorClientConfig inherit them).
struct SessionClientConfig {
  /// Shared secret carried in every kHello (net::Hello::token). Must
  /// match the server's --token / ESCHED_AUTH_TOKEN when it is configured
  /// with one; an empty token is accepted only by servers configured
  /// without one. A mismatch is a permanent rejection.
  std::string auth_token;
  /// TCP connect + handshake deadline per attempt.
  double connect_timeout_seconds = 5.0;
  /// Reconnect backoff: initial delay, doubled per consecutive failure
  /// or loss, capped at the max.
  double reconnect_initial_seconds = 0.1;
  double reconnect_max_seconds = 2.0;
};

/// What a session client reports to its owner. `id` is the one the
/// client was constructed with.
class SessionClientOwner {
 public:
  using Clock = run::EndpointClock;

  /// The handshake completed; send() works from here on.
  virtual void on_session_open(std::size_t id, const Welcome& welcome,
                               Clock::time_point now) = 0;
  /// A verified frame on an open session (anything after the kWelcome).
  virtual void on_session_frame(std::size_t id,
                                const run::wire::FrameHeader& header,
                                std::vector<std::uint8_t>& body,
                                Clock::time_point now) = 0;
  /// An open session ended: the peer, an I/O error, corruption, or
  /// SessionClient::close(). The client is already backing off.
  virtual void on_session_closed(std::size_t id, const std::string& why,
                                 Clock::time_point now) = 0;

 protected:
  ~SessionClientOwner() = default;
};

class SessionClient {
 public:
  using Clock = run::EndpointClock;

  /// connect_attempts value meaning "retry forever".
  static constexpr std::uint32_t kNeverAbandon = 0;

  enum class State {
    kBackoff,      ///< waiting for next_deadline() before (re)connecting
    kConnecting,   ///< TCP connect in flight (poll for POLLOUT)
    kHandshaking,  ///< kHello sent, waiting for kWelcome
    kReady,        ///< handshake done; the owner's frames flow
    kDead,         ///< rejected or out of budget, for good
  };

  /// `config` and `owner` must outlive the client. `hello_flags` are the
  /// kHelloFlag* bits of every kHello. The first connect starts at the
  /// first tick().
  SessionClient(HostPort addr, const SessionClientConfig& config,
                std::uint32_t connect_attempts, SessionClientOwner& owner,
                std::size_t id = 0, std::uint32_t hello_flags = 0);

  /// Start a due connect; fail an attempt whose deadline passed.
  void tick(Clock::time_point now);
  /// The next time tick() has work (max() when ready or dead).
  Clock::time_point next_deadline() const;

  /// Append this session's fd, if it has one; on_poll() must see the
  /// same array.
  void register_fds(std::vector<struct pollfd>& fds);
  void on_poll(const std::vector<struct pollfd>& fds);

  /// Queue a frame on the open session. False when the session is not
  /// open, or failed on this send (which closes it).
  bool send(const std::vector<std::uint8_t>& frame, Clock::time_point now);

  /// End the open session (on_session_closed follows) and back off
  /// without spending budget; before kWelcome, fail the attempt.
  void close(const std::string& why, Clock::time_point now);

  /// Drop the connection without telling the owner; the next tick()
  /// reconnects.
  void disconnect();

  State state() const { return state_; }
  bool ready() const { return state_ == State::kReady; }
  bool dead() const { return state_ == State::kDead; }
  const HostPort& addr() const { return addr_; }
  /// Why the last attempt failed or the last session ended.
  const std::string& last_error() const { return last_error_; }
  /// Adding this to the server's steady-clock nanos re-bases its
  /// timestamps onto this process's steady clock (0 until a kWelcome
  /// carries a clock).
  std::int64_t clock_offset_nanos() const { return clock_offset_nanos_; }

 private:
  void connect(Clock::time_point now);
  void on_connected(Clock::time_point now);
  void on_readable(Clock::time_point now);
  void handshake(const run::wire::FrameHeader& header,
                 const std::vector<std::uint8_t>& body, Clock::time_point now);
  void fail(const std::string& why, Clock::time_point now);
  void abandon(const std::string& why);
  void drop(const std::string& why);
  void back_off(Clock::time_point now);

  HostPort addr_;
  const SessionClientConfig& config_;
  std::uint32_t connect_attempts_;
  SessionClientOwner& owner_;
  std::size_t id_;
  std::uint32_t hello_flags_;

  State state_ = State::kBackoff;
  std::optional<FrameConn> conn_;
  /// kBackoff: next connect; kConnecting/kHandshaking: attempt deadline.
  Clock::time_point deadline_{};
  double backoff_seconds_;
  std::uint32_t connects_left_;
  /// When the kHello left, for the clock-offset estimate.
  Clock::time_point hello_sent_{};
  std::int64_t clock_offset_nanos_ = 0;
  std::string last_error_;
  /// Where register_fds() put the fd (kNotPolled: nowhere).
  static constexpr std::size_t kNotPolled = static_cast<std::size_t>(-1);
  std::size_t poll_slot_ = kNotPolled;
};

}  // namespace esched::net
