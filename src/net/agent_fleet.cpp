#include "net/agent_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

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

}  // namespace

AgentFleet::AgentFleet(const FleetConfig& config,
                       std::uint32_t connect_attempts, run::LaneOwner& owner,
                       obs::Tracer* tracer, obs::FleetAggregator* telemetry)
    : config_(config),
      owner_(owner),
      tracer_(tracer),
      telemetry_(telemetry) {
  const std::uint32_t flags = telemetry_ != nullptr ? kHelloFlagTelemetry : 0;
  agents_.reserve(config_.agents.size());
  for (std::size_t i = 0; i < config_.agents.size(); ++i) {
    agents_.emplace_back(SessionClient(config_.agents[i], config_,
                                       connect_attempts, *this, i, flags));
  }
}

// ---- the owner's poll loop ---------------------------------------------

void AgentFleet::tick(Clock::time_point now) {
  for (Agent& a : agents_) a.session.tick(now);
  check_task_deadlines(now);
  check_heartbeats(now);
  dispatch(now);
}

Clock::time_point AgentFleet::next_deadline() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const Agent& a : agents_) {
    nearest = std::min(nearest, a.session.next_deadline());
    if (!a.session.ready()) continue;
    nearest = std::min(nearest, a.next_ping);
    for (const run::Endpoint& ep : a.slots) {
      if (ep.busy() && ep.has_deadline) {
        nearest = std::min(nearest, ep.deadline);
      }
    }
  }
  return nearest;
}

void AgentFleet::register_fds(std::vector<struct pollfd>& fds) {
  for (Agent& a : agents_) a.session.register_fds(fds);
}

void AgentFleet::on_poll(const std::vector<struct pollfd>& fds) {
  for (Agent& a : agents_) a.session.on_poll(fds);
}

// ---- fleet state -------------------------------------------------------

std::string AgentFleet::unusable_reason(Clock::time_point now) const {
  for (const Agent& a : agents_) {
    if (!a.session.dead()) return {};
  }
  std::string detail;
  for (const run::AgentLiveness& live : liveness(now)) {
    if (!detail.empty()) detail += "; ";
    detail += live.addr + ": " + live.last_error;
  }
  return "no usable agents remain (" + detail + ")";
}

std::size_t AgentFleet::idle_lanes() const {
  std::size_t idle = 0;
  for (const Agent& a : agents_) {
    for (const run::Endpoint& ep : a.slots) {
      if (!ep.busy()) ++idle;
    }
  }
  return idle;
}

std::size_t AgentFleet::ready_slots() const {
  std::size_t total = 0;
  for (const Agent& a : agents_) total += a.slots.size();
  return total;
}

std::vector<run::AgentLiveness> AgentFleet::liveness(
    Clock::time_point now) const {
  std::vector<run::AgentLiveness> out;
  out.reserve(agents_.size());
  for (const Agent& a : agents_) {
    run::AgentLiveness live;
    live.addr = a.session.addr().text();
    if (a.session.ready()) {
      live.state = a.pings_unanswered == 0 ? "alive" : "suspect";
    } else {
      live.state = a.session.dead() ? "dead" : "connecting";
    }
    if (a.ever_connected) {
      live.last_heartbeat_age_seconds =
          std::chrono::duration<double>(now - a.last_pong).count();
    }
    live.last_error = a.session.last_error();
    out.push_back(std::move(live));
  }
  return out;
}

void AgentFleet::disconnect_all(Clock::time_point now) noexcept {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i].session.ready()) emit_connection_span(i, now);
    agents_[i].session.disconnect();
    agents_[i].slots.clear();
  }
}

// ---- session lifecycle -------------------------------------------------

std::string AgentFleet::who(std::size_t index) const {
  return "agent " + agents_[index].session.addr().text();
}

void AgentFleet::on_session_open(std::size_t index, const Welcome& welcome,
                                 Clock::time_point now) {
  Agent& a = agents_[index];
  a.slots.assign(std::max<std::uint32_t>(1, welcome.slots), run::Endpoint{});
  a.connected_at = now;
  a.ping_seq = 0;
  a.pings_unanswered = 0;
  a.last_pong = now;
  a.next_ping = after(now, config_.heartbeat_interval_seconds);
  bump("net.connects");
  if (a.ever_connected) bump("net.reconnects");
  a.ever_connected = true;
  peak_slots_ = std::max(peak_slots_, ready_slots());
  obs::log_debug("net.fleet", "agent ready",
                 {{"addr", a.session.addr().text()},
                  {"slots", a.slots.size()}});
}

/// An open session died (`why`): hand every in-flight task back to the
/// owner; the session client reconnects.
void AgentFleet::on_session_closed(std::size_t index, const std::string& why,
                                   Clock::time_point now) {
  emit_connection_span(index, now);
  const std::string reason = who(index) + ": " + why;
  const std::vector<run::Endpoint> slots = std::move(agents_[index].slots);
  agents_[index].slots.clear();
  for (const run::Endpoint& ep : slots) {
    if (ep.busy()) requeue(index, ep, reason, now);
  }
}

void AgentFleet::requeue(std::size_t index, const run::Endpoint& ep,
                         const std::string& reason, Clock::time_point now) {
  bump("net.cells_requeued");
  owner_.on_transient(index, ep, reason, now);
}

void AgentFleet::emit_connection_span(std::size_t index,
                                      Clock::time_point now) {
  const Agent& a = agents_[index];
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->complete_span("agent:" + a.session.addr().text(), "net",
                         a.connected_at, now,
                         kTrackBase + static_cast<std::uint32_t>(index));
}

// ---- clocks and dispatch -----------------------------------------------

void AgentFleet::dispatch(Clock::time_point now) {
  run::Dispatch work;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    for (run::Endpoint& ep : a.slots) {
      if (ep.busy()) continue;
      if (!owner_.claim(i, now, work)) return;  // nothing dispatchable now
      ep.begin(work.task, work.attempt, now, config_.task_timeout_seconds);
      if (!a.session.send(
              wire::encode_frame(wire::FrameType::kJob,
                                 static_cast<std::uint32_t>(work.task),
                                 work.attempt, *work.payload),
              now)) {
        break;  // the session closed and a.slots is gone; next agent
      }
    }
  }
}

void AgentFleet::check_task_deadlines(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    bool expired = false;
    for (run::Endpoint& ep : a.slots) {
      if (!ep.deadline_expired(now)) continue;
      expired = true;
      // The timed-out cell gets its own diagnosis; the connection reset
      // below requeues its siblings with a collateral reason.
      const run::Endpoint timed_out = ep;
      ep.clear();
      requeue(i, timed_out,
              "timed out after " +
                  run::format_seconds(config_.task_timeout_seconds) +
                  "s on agent " + a.session.addr().text(),
              now);
    }
    if (expired) {
      // A cell can't be killed remotely: retire the whole connection
      // (the agent drops orphaned results on EOF) and reconnect.
      a.session.close("connection reset after a task timeout", now);
    }
  }
}

void AgentFleet::check_heartbeats(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (!a.session.ready() || now < a.next_ping) continue;
    if (a.pings_unanswered >= config_.heartbeat_misses) {
      a.session.close(
          "missed " + std::to_string(a.pings_unanswered) +
              " heartbeats (last heartbeat " +
              run::format_seconds(
                  std::chrono::duration<double>(now - a.last_pong).count()) +
              "s ago)",
          now);
      continue;
    }
    if (a.pings_unanswered > 0) bump("net.heartbeats_missed");
    if (!a.session.send(wire::encode_frame(wire::FrameType::kPing,
                                           a.ping_seq++, 0, {}),
                        now)) {
      continue;  // the session closed
    }
    ++a.pings_unanswered;
    a.next_ping = after(now, config_.heartbeat_interval_seconds);
  }
}

// ---- inbound frames ----------------------------------------------------

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
          a.session.clock_offset_nanos());
      bump("net.telemetry_frames");
    } catch (const Error& e) {
      a.session.close("protocol corruption (" + std::string(e.what()) + ")",
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
    a.session.close("answer for a task this agent does not hold", now);
    return;
  }
  const run::Endpoint answered = *ep;
  switch (header.type) {
    case wire::FrameType::kResult:
      if (!owner_.on_result(index, answered, std::move(body), now)) {
        a.session.close("protocol corruption (undecodable result)", now);
        return;
      }
      ep->clear();
      return;
    case wire::FrameType::kError:
      // Deterministic failure: retrying reruns the same simulation.
      ep->clear();
      owner_.on_error(
          index, answered,
          wire::decode_error_or(body, "(undecodable error payload)"));
      return;
    case wire::FrameType::kFail:
      // Transient failure at the agent (its worker died): requeue this
      // attempt only; the connection stays up.
      ep->clear();
      requeue(index, answered,
              who(index) + ": " +
                  wire::decode_error_or(body, "(undecodable failure payload)"),
              now);
      return;
    default:
      a.session.close("unexpected frame type in session", now);
      return;
  }
}

}  // namespace esched::net
