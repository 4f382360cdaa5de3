#include "net/agent_fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/protocol.hpp"
#include "obs/fleet.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace {

namespace wire = run::wire;
using Clock = run::EndpointClock;

using obs::bump;
using run::after;

/// The message of a kError/kFail payload; a garbled one still gets its
/// failure classified, under `fallback`.
std::string decode_message(const std::vector<std::uint8_t>& body,
                           const char* fallback) {
  try {
    return wire::decode_error(body);
  } catch (const Error&) {
    return fallback;
  }
}

}  // namespace

AgentFleet::AgentFleet(const FleetConfig& config,
                       std::uint32_t connect_attempts, FleetOwner& owner,
                       obs::Tracer* tracer, obs::FleetAggregator* telemetry)
    : config_(config),
      connect_attempts_(connect_attempts),
      owner_(owner),
      tracer_(tracer),
      telemetry_(telemetry) {
  agents_.resize(config_.agents.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    agents_[i].addr = config_.agents[i];
    agents_[i].backoff_seconds = config_.reconnect_initial_seconds;
    agents_[i].connects_left = connect_attempts_;
  }
}

// ---- the owner's poll loop ---------------------------------------------

void AgentFleet::tick(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state == Agent::State::kBackoff && now >= a.retry_at) {
      start_connect(i, now);
    } else if ((a.state == Agent::State::kConnecting ||
                a.state == Agent::State::kHandshaking) &&
               now >= a.connect_deadline) {
      connect_failure(i,
                      a.state == Agent::State::kConnecting
                          ? "connect timed out"
                          : "handshake timed out",
                      now);
    }
  }
  check_task_deadlines(now);
  check_heartbeats(now);
  dispatch(now);
}

Clock::time_point AgentFleet::next_deadline() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const Agent& a : agents_) {
    switch (a.state) {
      case Agent::State::kBackoff:
        nearest = std::min(nearest, a.retry_at);
        break;
      case Agent::State::kConnecting:
      case Agent::State::kHandshaking:
        nearest = std::min(nearest, a.connect_deadline);
        break;
      case Agent::State::kReady:
        nearest = std::min(nearest, a.next_ping);
        for (const run::Endpoint& ep : a.slots) {
          if (ep.busy() && ep.has_deadline) {
            nearest = std::min(nearest, ep.deadline);
          }
        }
        break;
      case Agent::State::kDead:
        break;
    }
  }
  return nearest;
}

void AgentFleet::register_fds(std::vector<struct pollfd>& fds) {
  poll_base_ = fds.size();
  polled_.clear();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const Agent& a = agents_[i];
    if (a.state == Agent::State::kConnecting) {
      fds.push_back({a.conn->fd(), POLLOUT, 0});
    } else if (a.connected()) {
      const short events =
          static_cast<short>(POLLIN | (a.conn->wants_write() ? POLLOUT : 0));
      fds.push_back({a.conn->fd(), events, 0});
    } else {
      continue;
    }
    polled_.push_back(i);
  }
}

void AgentFleet::on_poll(const std::vector<struct pollfd>& fds) {
  ESCHED_REQUIRE(fds.size() >= poll_base_ + polled_.size(),
                 "AgentFleet::on_poll: fds do not match register_fds");
  for (std::size_t k = 0; k < polled_.size(); ++k) {
    const short revents = fds[poll_base_ + k].revents;
    if (revents == 0) continue;
    const std::size_t i = polled_[k];
    Agent& a = agents_[i];
    const Clock::time_point now = Clock::now();
    if (a.state == Agent::State::kConnecting) {
      if ((revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
        on_connect_writable(i, now);
      }
      continue;
    }
    if (!a.connected()) continue;
    if ((revents & POLLOUT) != 0 && !a.conn->flush()) {
      connection_lost(i, who(i) + ": send failed (connection lost)", now);
      continue;
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) on_readable(i, now);
  }
}

// ---- fleet state -------------------------------------------------------

bool AgentFleet::any_usable() const {
  for (const Agent& a : agents_) {
    if (a.state != Agent::State::kDead) return true;
  }
  return false;
}

std::string AgentFleet::unusable_reason(Clock::time_point now) const {
  std::string detail;
  for (const run::AgentLiveness& live : liveness(now)) {
    if (!detail.empty()) detail += "; ";
    detail += live.addr + ": " + live.last_error;
  }
  return "no usable agents remain (" + detail + ")";
}

std::size_t AgentFleet::idle_slots() const {
  std::size_t idle = 0;
  for (const Agent& a : agents_) {
    if (a.state != Agent::State::kReady) continue;
    for (const run::Endpoint& ep : a.slots) {
      if (!ep.busy()) ++idle;
    }
  }
  return idle;
}

std::size_t AgentFleet::ready_slots() const {
  std::size_t total = 0;
  for (const Agent& a : agents_) {
    if (a.state == Agent::State::kReady) total += a.slots.size();
  }
  return total;
}

std::vector<run::AgentLiveness> AgentFleet::liveness(
    Clock::time_point now) const {
  std::vector<run::AgentLiveness> out;
  out.reserve(agents_.size());
  for (const Agent& a : agents_) {
    run::AgentLiveness live;
    live.addr = a.addr.text();
    switch (a.state) {
      case Agent::State::kReady:
        live.state = a.pings_unanswered == 0 ? "alive" : "suspect";
        break;
      case Agent::State::kDead:
        live.state = "dead";
        break;
      case Agent::State::kBackoff:
      case Agent::State::kConnecting:
      case Agent::State::kHandshaking:
        live.state = "connecting";
        break;
    }
    if (a.ever_connected) {
      live.last_heartbeat_age_seconds =
          std::chrono::duration<double>(now - a.last_pong).count();
    }
    live.last_error = a.last_error;
    out.push_back(std::move(live));
  }
  return out;
}

void AgentFleet::disconnect_all(Clock::time_point now) noexcept {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    emit_connection_span(i, now);
    agents_[i].conn.reset();
  }
}

// ---- connection lifecycle ----------------------------------------------

std::string AgentFleet::who(std::size_t index) const {
  return "agent " + agents_[index].addr.text();
}

void AgentFleet::start_connect(std::size_t index, Clock::time_point now) {
  Agent& a = agents_[index];
  std::string error;
  Fd fd = connect_tcp_start(a.addr, error);
  if (!fd.valid()) {
    connect_failure(index, error, now);
    return;
  }
  a.conn.emplace(std::move(fd));
  a.state = Agent::State::kConnecting;
  a.connect_deadline = after(now, config_.connect_timeout_seconds);
}

void AgentFleet::on_connect_writable(std::size_t index,
                                     Clock::time_point now) {
  Agent& a = agents_[index];
  std::string error;
  if (!connect_tcp_finish(a.conn->fd(), error)) {
    connect_failure(index, error, now);
    return;
  }
  Hello hello;
  hello.protocol = kNetProtocolVersion;
  hello.token = config_.auth_token;
  if (telemetry_ != nullptr) hello.flags |= kHelloFlagTelemetry;
  a.hello_sent = now;
  if (!a.conn->send(wire::encode_frame(wire::FrameType::kHello, 0, 0,
                                       encode_hello(hello)))) {
    connect_failure(index, "send failed during handshake", now);
    return;
  }
  a.state = Agent::State::kHandshaking;  // connect_deadline still armed
}

/// A connect attempt failed before the handshake completed: back off,
/// or abandon the agent once its consecutive-connect budget is spent.
void AgentFleet::connect_failure(std::size_t index, const std::string& error,
                                 Clock::time_point now) {
  Agent& a = agents_[index];
  if (connect_attempts_ != kNeverAbandon && --a.connects_left == 0) {
    abandon(index, error);
    return;
  }
  a.conn.reset();
  a.last_error = error;
  back_off(a, now);
}

/// Permanent: the agent rejected us (version or token mismatch) or used
/// up its connect budget. Only reachable before kReady, so no slot holds
/// work.
void AgentFleet::abandon(std::size_t index, const std::string& error) {
  Agent& a = agents_[index];
  obs::log_error("net.fleet", "abandoning agent",
                 {{"addr", a.addr.text()}, {"reason", error}});
  a.conn.reset();
  a.last_error = error;
  a.state = Agent::State::kDead;
}

/// An established connection died (`reason`): hand every in-flight task
/// back to the owner and schedule a reconnect.
void AgentFleet::connection_lost(std::size_t index, const std::string& reason,
                                 Clock::time_point now) {
  Agent& a = agents_[index];
  obs::log_debug("net.fleet", "agent connection lost",
                 {{"addr", a.addr.text()}, {"reason", reason}});
  emit_connection_span(index, now);
  a.conn.reset();
  a.last_error = reason;
  back_off(a, now);
  const std::vector<run::Endpoint> slots = std::move(a.slots);
  a.slots.clear();
  for (const run::Endpoint& ep : slots) {
    if (ep.busy()) requeue(ep.task, reason, now);
  }
}

void AgentFleet::back_off(Agent& a, Clock::time_point now) {
  a.state = Agent::State::kBackoff;
  a.retry_at = after(now, a.backoff_seconds);
  a.backoff_seconds =
      std::min(config_.reconnect_max_seconds, a.backoff_seconds * 2.0);
}

void AgentFleet::requeue(std::size_t task, const std::string& reason,
                         Clock::time_point now) {
  bump("net.cells_requeued");
  owner_.on_transient(task, reason, now);
}

void AgentFleet::emit_connection_span(std::size_t index,
                                      Clock::time_point now) {
  const Agent& a = agents_[index];
  if (a.state != Agent::State::kReady || tracer_ == nullptr ||
      !tracer_->enabled()) {
    return;
  }
  tracer_->complete_span("agent:" + a.addr.text(), "net", a.connected_at,
                         now, kTrackBase + static_cast<std::uint32_t>(index));
}

// ---- clocks and dispatch -----------------------------------------------

void AgentFleet::dispatch(Clock::time_point now) {
  run::Dispatch work;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != Agent::State::kReady) continue;
    for (run::Endpoint& ep : a.slots) {
      if (ep.busy()) continue;
      if (!owner_.claim(now, work)) return;  // nothing dispatchable now
      ep.begin(work.task, work.attempt, now, config_.task_timeout_seconds);
      if (!a.conn->send(wire::encode_frame(
              wire::FrameType::kJob, static_cast<std::uint32_t>(work.task),
              work.attempt, *work.payload))) {
        connection_lost(i, who(i) + ": send failed (connection lost)", now);
        break;  // a.slots is gone; next agent
      }
    }
  }
}

void AgentFleet::check_task_deadlines(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != Agent::State::kReady) continue;
    bool expired = false;
    for (run::Endpoint& ep : a.slots) {
      if (!ep.deadline_expired(now)) continue;
      expired = true;
      // The timed-out cell gets its own diagnosis; the connection reset
      // below requeues its siblings with a collateral reason.
      const std::size_t task = ep.task;
      ep.clear();
      requeue(task,
              "timed out after " +
                  run::format_seconds(config_.task_timeout_seconds) +
                  "s on agent " + a.addr.text(),
              now);
    }
    if (expired) {
      // A cell can't be killed remotely: retire the whole connection
      // (the agent drops orphaned results on EOF) and reconnect.
      connection_lost(i, who(i) + ": connection reset after a task timeout",
                      now);
    }
  }
}

void AgentFleet::check_heartbeats(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != Agent::State::kReady || now < a.next_ping) continue;
    if (a.pings_unanswered >= config_.heartbeat_misses) {
      connection_lost(
          i,
          who(i) + ": missed " + std::to_string(a.pings_unanswered) +
              " heartbeats (last heartbeat " +
              run::format_seconds(
                  std::chrono::duration<double>(now - a.last_pong).count()) +
              "s ago)",
          now);
      continue;
    }
    if (a.pings_unanswered > 0) bump("net.heartbeats_missed");
    if (!a.conn->send(wire::encode_frame(wire::FrameType::kPing,
                                         a.ping_seq++, 0, {}))) {
      connection_lost(i, who(i) + ": send failed (connection lost)", now);
      continue;
    }
    ++a.pings_unanswered;
    a.next_ping = after(now, config_.heartbeat_interval_seconds);
  }
}

// ---- inbound frames ----------------------------------------------------

void AgentFleet::on_readable(std::size_t index, Clock::time_point now) {
  Agent& a = agents_[index];
  const FrameConn::ReadStatus status = a.conn->fill();
  if (status == FrameConn::ReadStatus::kError) {
    connection_lost(index,
                    who(index) + ": read failed (" +
                        std::string(std::strerror(errno)) + ")",
                    now);
    return;
  }
  while (a.connected()) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    const run::FrameAssembler::Status frame =
        a.conn->frames().next(header, body, corrupt);
    if (frame == run::FrameAssembler::Status::kNeedMore) break;
    if (frame == run::FrameAssembler::Status::kCorrupt) {
      connection_lost(index,
                      who(index) + ": protocol corruption (" + corrupt + ")",
                      now);
      return;
    }
    if (a.state == Agent::State::kHandshaking) {
      on_handshake_frame(index, header, body, now);
    } else {
      on_session_frame(index, header, body, now);
    }
  }
  if (!a.connected() || status != FrameConn::ReadStatus::kClosed) return;
  if (a.state == Agent::State::kHandshaking) {
    // Rejected during handshake with no kError frame — treat like a
    // failed connect (counts against the connect budget).
    connect_failure(index, "agent closed connection during handshake", now);
  } else {
    connection_lost(index,
                    who(index) + ": closed connection" +
                        (a.conn->frames().mid_frame() ? " mid-frame" : ""),
                    now);
  }
}

void AgentFleet::on_handshake_frame(std::size_t index,
                                    const wire::FrameHeader& header,
                                    const std::vector<std::uint8_t>& body,
                                    Clock::time_point now) {
  Agent& a = agents_[index];
  if (header.type == wire::FrameType::kError) {
    // Version or auth mismatch: the agent will never accept us.
    abandon(index, who(index) + " rejected handshake: " +
                       decode_message(body, "(undecodable error payload)"));
    return;
  }
  if (header.type != wire::FrameType::kWelcome) {
    connection_lost(index, who(index) + ": unexpected frame before kWelcome",
                    now);
    return;
  }
  Welcome welcome;
  try {
    welcome = decode_welcome(body);
  } catch (const Error& e) {
    connection_lost(index,
                    who(index) + ": protocol corruption (" +
                        std::string(e.what()) + ")",
                    now);
    return;
  }
  if (welcome.protocol != kNetProtocolVersion) {
    abandon(index, "protocol version mismatch (coordinator=" +
                       std::to_string(kNetProtocolVersion) +
                       ", agent=" + std::to_string(welcome.protocol) + ")");
    return;
  }
  if (welcome.steady_nanos != 0) {
    // NTP-style one-shot offset estimate: assume the agent sampled its
    // clock at the midpoint of the hello->welcome round trip. Good to
    // ~RTT/2, plenty for aligning millisecond-scale simulate spans.
    const Clock::time_point midpoint = a.hello_sent + (now - a.hello_sent) / 2;
    const std::int64_t local_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            midpoint.time_since_epoch())
            .count();
    a.clock_offset_nanos =
        local_nanos - static_cast<std::int64_t>(welcome.steady_nanos);
  }
  a.state = Agent::State::kReady;
  a.slots.assign(std::max<std::uint32_t>(1, welcome.slots), run::Endpoint{});
  a.connected_at = now;
  a.backoff_seconds = config_.reconnect_initial_seconds;
  a.connects_left = connect_attempts_;
  a.ping_seq = 0;
  a.pings_unanswered = 0;
  a.last_pong = now;
  a.next_ping = after(now, config_.heartbeat_interval_seconds);
  bump("net.connects");
  if (a.ever_connected) bump("net.reconnects");
  a.ever_connected = true;
  peak_slots_ = std::max(peak_slots_, ready_slots());
  obs::log_debug("net.fleet", "agent ready",
                 {{"addr", a.addr.text()}, {"slots", a.slots.size()}});
}

void AgentFleet::on_session_frame(std::size_t index,
                                  const wire::FrameHeader& header,
                                  std::vector<std::uint8_t>& body,
                                  Clock::time_point now) {
  Agent& a = agents_[index];
  if (header.type == wire::FrameType::kPong) {
    a.pings_unanswered = 0;
    a.last_pong = now;
    return;
  }
  if (header.type == wire::FrameType::kTelemetry) {
    // Advisory shipment from the agentd or one of its workers, sent only
    // when the hello asked for it. Arrives before the answer frame, so it
    // must not consult the slot table. A CRC-valid but undecodable
    // payload means the agent speaks a different dialect — retire the
    // connection like any corruption.
    if (telemetry_ == nullptr) return;
    try {
      const obs::Telemetry telemetry = wire::decode_telemetry(body);
      telemetry_->ingest(
          "agent." + std::to_string(index) + "." + telemetry.role, telemetry,
          a.clock_offset_nanos);
      bump("net.telemetry_frames");
    } catch (const Error& e) {
      connection_lost(index,
                      who(index) + ": protocol corruption (" +
                          std::string(e.what()) + ")",
                      now);
    }
    return;
  }
  run::Endpoint* ep = nullptr;
  for (run::Endpoint& slot : a.slots) {
    if (slot.busy() && slot.task == header.task_id &&
        slot.attempt == header.attempt) {
      ep = &slot;
      break;
    }
  }
  if (ep == nullptr) {
    connection_lost(
        index, who(index) + ": answer for a task this agent does not hold",
        now);
    return;
  }
  switch (header.type) {
    case wire::FrameType::kResult:
      if (!owner_.on_result(index, *ep, std::move(body), now)) {
        connection_lost(
            index, who(index) + ": protocol corruption (undecodable result)",
            now);
        return;
      }
      ep->clear();
      return;
    case wire::FrameType::kError: {
      // Deterministic failure: retrying reruns the same simulation.
      const std::size_t task = ep->task;
      ep->clear();
      owner_.on_error(task,
                      decode_message(body, "(undecodable error payload)"));
      return;
    }
    case wire::FrameType::kFail: {
      // Transient failure at the agent (its worker died): requeue this
      // attempt only; the connection stays up.
      const std::size_t task = ep->task;
      ep->clear();
      requeue(task,
              who(index) + ": " +
                  decode_message(body, "(undecodable failure payload)"),
              now);
      return;
    }
    default:
      connection_lost(index, who(index) + ": unexpected frame type in session",
                      now);
      return;
  }
}

}  // namespace esched::net
