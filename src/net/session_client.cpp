#include "net/session_client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/log.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace wire = run::wire;

SessionClient::SessionClient(HostPort addr, const SessionClientConfig& config,
                             std::uint32_t connect_attempts,
                             SessionClientOwner& owner, std::size_t id,
                             std::uint32_t hello_flags)
    : addr_(std::move(addr)),
      config_(config),
      connect_attempts_(connect_attempts),
      owner_(owner),
      id_(id),
      hello_flags_(hello_flags),
      backoff_seconds_(config.reconnect_initial_seconds),
      connects_left_(connect_attempts) {}

// ---- the owner's poll loop ---------------------------------------------

void SessionClient::tick(Clock::time_point now) {
  if (now < deadline_) return;
  if (state_ == State::kBackoff) {
    connect(now);
  } else if (state_ == State::kConnecting) {
    fail("connect timed out", now);
  } else if (state_ == State::kHandshaking) {
    fail("handshake timed out", now);
  }
}

SessionClient::Clock::time_point SessionClient::next_deadline() const {
  return state_ == State::kReady || state_ == State::kDead
             ? Clock::time_point::max()
             : deadline_;
}

void SessionClient::register_fds(std::vector<struct pollfd>& fds) {
  poll_slot_ = kNotPolled;
  if (!conn_) return;
  const short events =
      state_ == State::kConnecting
          ? POLLOUT
          : static_cast<short>(POLLIN | (conn_->wants_write() ? POLLOUT : 0));
  poll_slot_ = fds.size();
  fds.push_back({conn_->fd(), events, 0});
}

void SessionClient::on_poll(const std::vector<struct pollfd>& fds) {
  const std::size_t slot = std::exchange(poll_slot_, kNotPolled);
  if (slot == kNotPolled) return;
  ESCHED_REQUIRE(conn_ && slot < fds.size() && fds[slot].fd == conn_->fd(),
                 "SessionClient::on_poll: fds do not match register_fds");
  const short revents = fds[slot].revents;
  if (revents == 0) return;
  const Clock::time_point now = Clock::now();
  if (state_ == State::kConnecting) {
    on_connected(now);
    return;
  }
  if ((revents & POLLOUT) != 0 && !conn_->flush()) {
    close("send failed (connection lost)", now);
    return;
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) on_readable(now);
}

bool SessionClient::send(const std::vector<std::uint8_t>& frame,
                         Clock::time_point now) {
  if (state_ != State::kReady) return false;
  if (conn_->send(frame)) return true;
  close("send failed (connection lost)", now);
  return false;
}

void SessionClient::close(const std::string& why, Clock::time_point now) {
  if (state_ == State::kConnecting || state_ == State::kHandshaking) {
    fail(why, now);
    return;
  }
  if (state_ != State::kReady) return;
  obs::log_debug("net.session", "session lost",
                 {{"addr", addr_.text()}, {"reason", why}});
  drop(why);
  back_off(now);
  owner_.on_session_closed(id_, why, now);
}

void SessionClient::disconnect() {
  if (state_ == State::kDead) return;
  conn_.reset();
  poll_slot_ = kNotPolled;
  state_ = State::kBackoff;
}

// ---- connect and handshake ---------------------------------------------

void SessionClient::connect(Clock::time_point now) {
  std::string error;
  Fd fd = connect_tcp_start(addr_, error);
  if (!fd.valid()) {
    fail(error, now);
    return;
  }
  conn_.emplace(std::move(fd));
  conn_->frames().limit_payload(kMaxHelloPayload);
  state_ = State::kConnecting;
  deadline_ = run::after(now, config_.connect_timeout_seconds);
}

void SessionClient::on_connected(Clock::time_point now) {
  std::string error;
  if (!connect_tcp_finish(conn_->fd(), error)) {
    fail(error, now);
    return;
  }
  Hello hello;
  hello.flags = hello_flags_;
  hello.token = config_.auth_token;
  hello_sent_ = now;
  state_ = State::kHandshaking;  // the attempt deadline stays armed
  if (!conn_->send(wire::encode_frame(wire::FrameType::kHello, 0, 0,
                                      encode_hello(hello)))) {
    fail("send failed during handshake", now);
  }
}

void SessionClient::on_readable(Clock::time_point now) {
  const FrameConn::ReadStatus status = conn_->fill();
  if (status == FrameConn::ReadStatus::kError) {
    close("read failed (" + std::string(std::strerror(errno)) + ")", now);
    return;
  }
  // A callback may close the session: re-check before every frame.
  while (state_ == State::kHandshaking || state_ == State::kReady) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    const run::FrameAssembler::Status frame =
        conn_->frames().next(header, body, corrupt);
    if (frame == run::FrameAssembler::Status::kNeedMore) break;
    if (frame == run::FrameAssembler::Status::kCorrupt) {
      close("protocol corruption (" + corrupt + ")", now);
      return;
    }
    if (state_ == State::kHandshaking) {
      handshake(header, body, now);
    } else {
      owner_.on_session_frame(id_, header, body, now);
    }
  }
  if (status != FrameConn::ReadStatus::kClosed) return;
  if (state_ == State::kHandshaking) {
    fail("closed connection during handshake", now);
  } else if (state_ == State::kReady) {
    close(std::string("closed connection") +
              (conn_->frames().mid_frame() ? " mid-frame" : ""),
          now);
  }
}

void SessionClient::handshake(const wire::FrameHeader& header,
                              const std::vector<std::uint8_t>& body,
                              Clock::time_point now) {
  if (header.type == wire::FrameType::kError) {
    // Version or auth mismatch: the server will never accept us.
    abandon(wire::decode_error_or(body, "(undecodable rejection)"));
    return;
  }
  if (header.type != wire::FrameType::kWelcome) {
    fail("unexpected frame before kWelcome", now);
    return;
  }
  Welcome welcome;
  try {
    welcome = decode_welcome(body);
  } catch (const Error& e) {
    fail("protocol corruption (" + std::string(e.what()) + ")", now);
    return;
  }
  if (welcome.protocol != kNetProtocolVersion) {
    abandon("protocol version mismatch (client=" +
            std::to_string(kNetProtocolVersion) +
            ", server=" + std::to_string(welcome.protocol) + ")");
    return;
  }
  if (welcome.steady_nanos != 0) {
    // NTP-style one-shot offset estimate: assume the server sampled its
    // clock at the midpoint of the hello->welcome round trip. Good to
    // ~RTT/2, plenty for aligning millisecond-scale simulate spans.
    const Clock::time_point midpoint = hello_sent_ + (now - hello_sent_) / 2;
    const std::int64_t local_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            midpoint.time_since_epoch())
            .count();
    clock_offset_nanos_ =
        local_nanos - static_cast<std::int64_t>(welcome.steady_nanos);
  }
  state_ = State::kReady;
  conn_->frames().limit_payload(wire::kMaxPayload);
  backoff_seconds_ = config_.reconnect_initial_seconds;
  connects_left_ = connect_attempts_;
  owner_.on_session_open(id_, welcome, now);
}

// ---- failures ----------------------------------------------------------

/// An attempt failed before kWelcome: spend one unit of budget, then back
/// off, or abandon the server once the budget is spent.
void SessionClient::fail(const std::string& why, Clock::time_point now) {
  if (connect_attempts_ != kNeverAbandon && --connects_left_ == 0) {
    abandon(why + " (" + std::to_string(connect_attempts_) +
            " consecutive failures)");
    return;
  }
  obs::log_debug("net.session", "connect failed",
                 {{"addr", addr_.text()}, {"reason", why}});
  drop(why);
  back_off(now);
}

/// Permanent: rejected, or out of connect budget.
void SessionClient::abandon(const std::string& why) {
  obs::log_error("net.session", "abandoning server",
                 {{"addr", addr_.text()}, {"reason", why}});
  drop(why);
  state_ = State::kDead;
}

void SessionClient::drop(const std::string& why) {
  conn_.reset();
  poll_slot_ = kNotPolled;
  last_error_ = why;
}

void SessionClient::back_off(Clock::time_point now) {
  state_ = State::kBackoff;
  deadline_ = run::after(now, backoff_seconds_);
  backoff_seconds_ =
      std::min(config_.reconnect_max_seconds, backoff_seconds_ * 2.0);
}

}  // namespace esched::net
