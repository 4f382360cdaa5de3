#include "svc/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <utility>

#include <poll.h>

#include "net/protocol.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "run/spec.hpp"
#include "util/error.hpp"

namespace esched::svc {

namespace {

namespace wire = run::wire;
using Clock = run::EndpointClock;

using obs::bump;

/// Mirror the journal-hit total into the `svc.journal.hits` gauge so it
/// rides along with the journal size/entry gauges in /metrics.
void publish_journal_hits() {
  if (!obs::counters_enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("svc.journal.hits")
      .set(static_cast<double>(reg.counter("svc.journal_hits").value()));
}

std::string join_failures(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += (i == 0 ? "[" : "; [") + lines[i] + "]";
  }
  return out;
}

Clock::time_point after(Clock::time_point now, double seconds) {
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      fleet_(config_, net::AgentFleet::kNeverAbandon, *this) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "esched-coordinator: max_attempts must be >= 1");
  ESCHED_REQUIRE(!config_.agents.empty(),
                 "esched-coordinator: no agents configured (pass --agents "
                 "or set ESCHED_AGENTS)");
  ESCHED_REQUIRE(!config_.journal_path.empty(),
                 "esched-coordinator: no journal path configured (pass "
                 "--journal)");
  retry_.max_attempts = config_.max_attempts;
  retry_.backoff_initial_seconds = config_.backoff_initial_seconds;
  retry_.backoff_max_seconds = config_.backoff_max_seconds;
}

std::uint16_t Coordinator::start() {
  if (config_.http_enabled) {
    // The exposition endpoints read the registry, so scraping a daemon
    // that never enabled counters would show all-zero metrics — turn
    // them on with the plane. Determinism is unaffected (registry.hpp's
    // contract: instrumentation never feeds back into results).
    obs::set_counters_enabled(true);
    http_.set_handler(
        [this](const obs::HttpRequest& req) { return handle_http(req); });
    http_.listen(config_.bind_host, config_.http_port);
  }
  journal_.set_warn_bytes(config_.journal_warn_bytes);
  journal_.open(config_.journal_path, run::FaultPlan::from_env(),
                [this](const wire::JournalRecord& record) {
                  store_[record.cell_key] = record.result_bytes;
                });
  listener_ = net::listen_tcp(config_.bind_host, config_.port);
  started_at_ = Clock::now();
  return net::local_port(listener_.get());
}

void Coordinator::serve() {
  run::SigpipeGuard sigpipe;
  for (;;) step();
}

// ---- the poll loop ----------------------------------------------------

void Coordinator::step() {
  const Clock::time_point now = Clock::now();
  fleet_.tick(now);

  // fds[0] is the listener and fds[1 + k] client `ids[k]`; the fleet and
  // HTTP fds follow, each dispatched by its own on_poll.
  std::vector<struct pollfd> fds;
  std::vector<std::uint64_t> ids;
  fds.push_back({listener_.get(), POLLIN, 0});
  for (auto& [id, client] : clients_) {
    int events = 0;
    if (!client.closing) events |= POLLIN;
    if (client.conn.wants_write()) events |= POLLOUT;
    if (events == 0) continue;  // closing and flushed: reaped below
    fds.push_back({client.conn.fd(), static_cast<short>(events), 0});
    ids.push_back(id);
  }
  fleet_.register_fds(fds);
  http_.register_fds(fds);

  const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                        next_timeout_ms(now));
  if (rc < 0 && errno != EINTR) {
    throw Error("esched-coordinator: poll failed: " +
                std::string(std::strerror(errno)));
  }
  if (rc > 0) {
    http_.on_poll(fds.data(), fds.size());
    if (fds[0].revents != 0) accept_clients();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const short revents = fds[k + 1].revents;
      if (revents != 0 && clients_.count(ids[k]) != 0) {
        on_client_event(ids[k], revents);
      }
    }
    fleet_.on_poll(fds);
  }
  reap_closed();
}

int Coordinator::next_timeout_ms(Clock::time_point now) const {
  Clock::time_point nearest = fleet_.next_deadline();
  for (const std::string& key : pending_) {
    const auto it = cells_.find(key);
    if (it != cells_.end() && !it->second.in_flight) {
      nearest = std::min(nearest, it->second.ready_at);
    }
  }
  return net::poll_timeout_ms(nearest, now);
}

// ---- clients ----------------------------------------------------------

void Coordinator::accept_clients() {
  for (;;) {
    net::Fd fd = net::accept_tcp(listener_.get());
    if (!fd.valid()) return;
    const std::uint64_t id = next_client_id_++;
    clients_.emplace(id, Client(std::move(fd)));
    obs::log_debug("svc.coordinator", "client connected", {{"client", id}});
  }
}

void Coordinator::on_client_event(std::uint64_t id, short revents) {
  Client& client = clients_.at(id);
  if ((revents & POLLOUT) != 0 && !client.conn.flush()) {
    drop_client(id, "send failed");
    return;
  }
  if (client.closing || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
    return;
  }
  const net::FrameConn::ReadStatus status = client.conn.fill();
  process_client_frames(id);
  if (clients_.count(id) == 0) return;
  if (status != net::FrameConn::ReadStatus::kOk) {
    drop_client(id, status == net::FrameConn::ReadStatus::kClosed
                        ? "disconnected"
                        : "read failed");
  }
}

void Coordinator::process_client_frames(std::uint64_t id) {
  while (clients_.count(id) != 0) {
    Client& client = clients_.at(id);
    if (client.closing) return;
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    const run::FrameAssembler::Status status =
        client.conn.frames().next(header, body, corrupt);
    if (status == run::FrameAssembler::Status::kNeedMore) return;
    if (status == run::FrameAssembler::Status::kCorrupt) {
      drop_client(id, "protocol corruption (" + corrupt + ")");
      return;
    }
    if (!client.handshaken) {
      on_client_hello(id, header, body);
      continue;
    }
    switch (header.type) {
      case wire::FrameType::kPing:
        if (!send_client(id, wire::encode_frame(wire::FrameType::kPong,
                                                header.task_id,
                                                header.attempt, {}))) {
          return;
        }
        break;
      case wire::FrameType::kSubmit:
        on_submit(id, body);
        break;
      case wire::FrameType::kAttach:
        on_attach(id, body);
        break;
      default:
        drop_client(id, "unexpected frame type in session");
        return;
    }
  }
}

void Coordinator::on_client_hello(std::uint64_t id,
                                  const wire::FrameHeader& header,
                                  const std::vector<std::uint8_t>& body) {
  Client& client = clients_.at(id);
  net::Hello hello;
  const std::string error = net::check_hello(header, body, config_.auth_token,
                                             "esched-coordinator", hello);
  if (!error.empty()) {
    obs::log_warn("svc.coordinator", "rejecting client",
                  {{"client", id}, {"reason", error}});
    bump("svc.clients_rejected");
    client.conn.send(wire::encode_frame(wire::FrameType::kError, 0, 0,
                                        wire::encode_error(error)));
    client.closing = true;
    return;
  }
  net::Welcome welcome;
  welcome.protocol = net::kNetProtocolVersion;
  welcome.slots = static_cast<std::uint32_t>(fleet_.ready_slots());
  client.handshaken = true;
  send_client(id, wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                                     net::encode_welcome(welcome)));
}

void Coordinator::on_submit(std::uint64_t id,
                            const std::vector<std::uint8_t>& body) {
  wire::SubmitRequest request;
  try {
    request = wire::decode_submit(body);
  } catch (const Error& e) {
    drop_client(id, "protocol corruption (" + std::string(e.what()) + ")");
    return;
  }
  bump("svc.submits");
  const Clock::time_point now = Clock::now();

  // Canonical keys first: a spec that cannot cross a process boundary
  // (or whose grid clashes with an existing sweep id) must be rejected
  // before any state changes.
  std::vector<std::string> keys;
  std::vector<std::vector<std::uint8_t>> payloads;
  keys.reserve(request.specs.size());
  payloads.reserve(request.specs.size());
  try {
    for (const run::JobSpec& spec : request.specs) {
      payloads.push_back(wire::encode_job(spec));
      keys.push_back(run::cell_key(spec));
    }
  } catch (const Error& e) {
    send_error(id, e.what());
    return;
  }

  auto existing = sweeps_.find(request.sweep_id);
  if (existing != sweeps_.end()) {
    if (existing->second.keys != keys) {
      send_error(id, "esched-coordinator: sweep id \"" + request.sweep_id +
                         "\" re-submitted with a different grid");
      return;
    }
    // Idempotent re-submission: same id, same grid — resume.
    attach_client(id, request.sweep_id);
    return;
  }

  Sweep sweep;
  sweep.keys = keys;
  sweep.delivered.assign(keys.size(), false);
  sweep.submitted_at = now;
  sweeps_.emplace(request.sweep_id, std::move(sweep));
  attach_client(id, request.sweep_id);  // also replays nothing yet

  Sweep& s = sweeps_.at(request.sweep_id);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (store_.count(keys[i]) != 0) {
      // Served from the journal-backed store: zero fleet work.
      s.delivered[i] = true;
      ++s.delivered_count;
      bump("svc.journal_hits");
      publish_journal_hits();
      send_cell_done(id, i, keys[i]);
      continue;
    }
    const auto cell = cells_.find(keys[i]);
    if (cell == cells_.end()) {
      Cell fresh;
      fresh.payload = std::move(payloads[i]);
      fresh.label = request.specs[i].label;
      fresh.ready_at = now;
      cells_.emplace(keys[i], std::move(fresh));
      pending_.push_back(keys[i]);
    }
    cells_.at(keys[i]).waiters.emplace_back(request.sweep_id, i);
  }
  maybe_finish_sweep(request.sweep_id);
}

void Coordinator::on_attach(std::uint64_t id,
                            const std::vector<std::uint8_t>& body) {
  std::string sweep_id;
  try {
    sweep_id = wire::decode_attach(body);
  } catch (const Error& e) {
    drop_client(id, "protocol corruption (" + std::string(e.what()) + ")");
    return;
  }
  bump("svc.attaches");
  if (sweeps_.count(sweep_id) == 0) {
    // The client falls back to a full kSubmit on this exact message.
    send_error(id, "esched-coordinator: unknown sweep \"" + sweep_id + "\"");
    return;
  }
  attach_client(id, sweep_id);
}

/// Attach `id` to the sweep (stealing it from any previous client — the
/// newest connection wins, which is what session resumption means) and
/// replay every kCellDone already available, plus kSweepDone if the
/// sweep already finished.
void Coordinator::attach_client(std::uint64_t id,
                                const std::string& sweep_id) {
  Sweep& sweep = sweeps_.at(sweep_id);
  if (sweep.client != 0 && sweep.client != id) {
    const auto old = clients_.find(sweep.client);
    if (old != clients_.end()) old->second.sweep_id.clear();
  }
  sweep.client = id;
  clients_.at(id).sweep_id = sweep_id;
  for (std::size_t i = 0; i < sweep.keys.size(); ++i) {
    if (!sweep.delivered[i]) continue;
    send_cell_done(id, i, sweep.keys[i]);
    if (clients_.count(id) == 0) return;  // send failure dropped it
  }
  if (sweep.done) send_sweep_done(id, sweep);
}

bool Coordinator::send_client(std::uint64_t id,
                              const std::vector<std::uint8_t>& frame) {
  if (clients_.at(id).conn.send(frame)) return true;
  drop_client(id, "send failed");
  return false;
}

void Coordinator::send_error(std::uint64_t id, const std::string& message) {
  send_client(id, wire::encode_frame(wire::FrameType::kError, 0, 0,
                                     wire::encode_error(message)));
}

void Coordinator::send_sweep_done(std::uint64_t id, const Sweep& sweep) {
  wire::SweepDone done;
  done.total = static_cast<std::uint64_t>(sweep.keys.size());
  done.simulated = sweep.simulated;
  done.journal_hits = sweep.journal_hits;
  send_client(id, wire::encode_frame(wire::FrameType::kSweepDone, 0, 0,
                                     wire::encode_sweep_done(done)));
}

void Coordinator::send_cell_done(std::uint64_t client, std::size_t index,
                                 const std::string& key) {
  const auto it = clients_.find(client);
  if (it == clients_.end() || it->second.closing) return;
  // The stored bytes are the worker's encode_result output, verbatim —
  // the client's decode sees exactly what a fresh simulation produced.
  send_client(client, wire::encode_frame(wire::FrameType::kCellDone,
                                         static_cast<std::uint32_t>(index),
                                         0, store_.at(key)));
}

void Coordinator::maybe_finish_sweep(const std::string& sweep_id) {
  Sweep& sweep = sweeps_.at(sweep_id);
  if (sweep.done || sweep.delivered_count < sweep.keys.size()) return;
  sweep.done = true;
  // journal_hits counts every index that cost no fresh simulation for
  // this submission: store hits at submit AND within-grid duplicates of
  // a freshly simulated cell (total == simulated + journal_hits).
  sweep.journal_hits =
      static_cast<std::uint64_t>(sweep.keys.size()) - sweep.simulated;
  if (sweep.client != 0) send_sweep_done(sweep.client, sweep);
}

void Coordinator::fail_sweep(const std::string& sweep_id,
                             const std::string& message) {
  const auto it = sweeps_.find(sweep_id);
  if (it == sweeps_.end()) return;
  const std::uint64_t client = it->second.client;
  sweeps_.erase(it);
  // Forget this sweep's interest in every other cell.
  for (auto& [key, cell] : cells_) {
    std::erase_if(cell.waiters,
                  [&](const auto& w) { return w.first == sweep_id; });
  }
  if (client != 0 && clients_.count(client) != 0) {
    clients_.at(client).sweep_id.clear();
    send_error(client, message);
  }
}

void Coordinator::drop_client(std::uint64_t id, const std::string& why) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) return;
  obs::log_debug("svc.coordinator", "client dropped",
                 {{"client", id}, {"reason", why}});
  // The sweep outlives the connection: it keeps running detached and the
  // client resumes it later with kAttach.
  if (!it->second.sweep_id.empty()) {
    const auto sweep = sweeps_.find(it->second.sweep_id);
    if (sweep != sweeps_.end() && sweep->second.client == id) {
      sweep->second.client = 0;
    }
  }
  clients_.erase(it);
}

void Coordinator::reap_closed() {
  std::vector<std::uint64_t> done;
  for (auto& [id, client] : clients_) {
    if (client.closing && !client.conn.wants_write()) done.push_back(id);
  }
  for (const std::uint64_t id : done) drop_client(id, "rejected");
}

// ---- work management --------------------------------------------------

/// Pop the first pending cell whose backoff elapsed, skipping (and
/// discarding) stale queue entries for cells that completed or failed
/// while queued, and start its next attempt under a fresh dispatch id.
bool Coordinator::claim(Clock::time_point now, net::FleetWork& work) {
  for (std::size_t i = 0; i < pending_.size();) {
    const auto it = cells_.find(pending_[i]);
    const bool stale = it == cells_.end() || it->second.in_flight;
    if (!stale && it->second.ready_at > now) {
      ++i;
      continue;
    }
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    if (stale) continue;
    Cell& cell = it->second;
    work.task = next_dispatch_;
    work.attempt = cell.attempts++;
    work.payload = &cell.payload;
    cell.in_flight = true;
    in_flight_[next_dispatch_++] = it->first;
    bump("svc.cells_dispatched");
    return true;
  }
  return false;
}

bool Coordinator::on_result(std::size_t /*agent*/, const run::Endpoint& slot,
                            std::vector<std::uint8_t> bytes,
                            Clock::time_point /*now*/) {
  const auto task = static_cast<std::uint32_t>(slot.task);
  const auto flight = in_flight_.find(task);
  if (flight == in_flight_.end()) return false;
  const std::string key = flight->second;
  in_flight_.erase(flight);

  // Stored and journaled *verbatim* (the CRC already vouched for the
  // bytes): decoding and re-encoding could only risk the byte-identity
  // the journal promises. Durability first: the record is on disk (or
  // counted as dropped) before any client sees the result.
  wire::JournalRecord record;
  record.cell_key = key;
  record.result_bytes = bytes;
  journal_.append(record, task, slot.attempt);
  store_[key] = std::move(bytes);
  bump("svc.cells_completed");

  const auto it = cells_.find(key);
  if (it == cells_.end()) return true;  // no one was waiting
  const std::vector<std::pair<std::string, std::size_t>> waiters =
      std::move(it->second.waiters);
  cells_.erase(it);

  std::set<std::string> counted;  // one simulated++ per sweep per cell
  std::set<std::string> touched;
  for (const auto& [sweep_id, index] : waiters) {
    const auto sweep = sweeps_.find(sweep_id);
    if (sweep == sweeps_.end()) continue;  // sweep failed meanwhile
    Sweep& s = sweep->second;
    if (s.delivered[index]) continue;
    s.delivered[index] = true;
    ++s.delivered_count;
    if (counted.insert(sweep_id).second) ++s.simulated;
    if (s.client != 0) send_cell_done(s.client, index, key);
    touched.insert(sweep_id);
  }
  for (const std::string& sweep_id : touched) {
    if (sweeps_.count(sweep_id) != 0) maybe_finish_sweep(sweep_id);
  }
  return true;
}

void Coordinator::on_transient(std::size_t task, const std::string& reason,
                               Clock::time_point now) {
  const auto flight = in_flight_.find(static_cast<std::uint32_t>(task));
  if (flight == in_flight_.end()) return;
  const std::string key = flight->second;
  in_flight_.erase(flight);
  const auto it = cells_.find(key);
  if (it == cells_.end()) return;
  Cell& cell = it->second;
  cell.in_flight = false;
  cell.failures.push_back("attempt " + std::to_string(cell.attempts) + ": " +
                          reason);
  if (cell.attempts >= config_.max_attempts) {
    fail_cell(key, "sweep cell \"" + cell.label + "\" failed after " +
                       std::to_string(cell.attempts) + " attempt(s): " +
                       join_failures(cell.failures));
    return;
  }
  cell.ready_at = after(now, retry_.backoff_seconds(cell.attempts));
  pending_.push_back(key);
}

void Coordinator::on_error(std::size_t task, const std::string& message) {
  const auto flight = in_flight_.find(static_cast<std::uint32_t>(task));
  if (flight == in_flight_.end()) return;
  const std::string key = flight->second;
  in_flight_.erase(flight);
  const auto cell = cells_.find(key);
  const std::string label = cell != cells_.end() ? cell->second.label : key;
  // Deterministic failure: retrying reruns the same simulation.
  fail_cell(key, "sweep cell \"" + label + "\" failed: " + message);
}

/// Deterministic failure or attempt-budget exhaustion: every sweep
/// waiting on this cell fails (the in-process pools fail the whole sweep
/// on the same conditions), other sweeps are untouched.
void Coordinator::fail_cell(const std::string& key,
                            const std::string& message) {
  const auto it = cells_.find(key);
  if (it == cells_.end()) return;
  std::set<std::string> affected;
  for (const auto& [sweep_id, index] : it->second.waiters) {
    affected.insert(sweep_id);
  }
  cells_.erase(it);
  for (const std::string& sweep_id : affected) fail_sweep(sweep_id, message);
}

std::vector<run::AgentLiveness> Coordinator::fleet_liveness() const {
  return fleet_.liveness(Clock::now());
}

// ---- operational plane ------------------------------------------------

OpsHealth Coordinator::ops_health() const {
  OpsHealth health;
  health.role = "coordinator";
  health.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_at_).count();
  health.agents = fleet_liveness();
  health.has_journal = journal_.is_open();
  health.journal_path = journal_.path();
  health.journal_bytes = journal_.bytes();
  health.journal_entries = journal_.entries();
  health.clients = clients_.size();
  // An operator probing /healthz wants one bit: is this fleet able to
  // make progress? Dead agents (permanent rejections) mean it may not.
  health.ok = journal_.is_open();
  for (const run::AgentLiveness& agent : health.agents) {
    if (agent.state == "dead") health.ok = false;
  }
  return health;
}

OpsSweeps Coordinator::ops_sweeps() const {
  const Clock::time_point now = Clock::now();
  OpsSweeps out;
  for (const auto& [key, cell] : cells_) {
    if (cell.in_flight) {
      ++out.cells_in_flight;
    } else {
      ++out.cells_pending;
    }
  }
  for (const auto& [id, sweep] : sweeps_) {
    OpsSweepInfo info;
    info.id = id;
    info.total = sweep.keys.size();
    info.delivered = sweep.delivered_count;
    info.simulated = sweep.simulated;
    info.journal_hits = sweep.journal_hits;
    info.done = sweep.done;
    info.attached = sweep.client != 0;
    info.elapsed_seconds =
        std::chrono::duration<double>(now - sweep.submitted_at).count();
    if (!sweep.done && sweep.delivered_count > 0) {
      info.eta_seconds = info.elapsed_seconds /
                         static_cast<double>(sweep.delivered_count) *
                         static_cast<double>(info.total - info.delivered);
    }
    out.sweeps.push_back(std::move(info));
  }
  return out;
}

obs::HttpResponse Coordinator::handle_http(const obs::HttpRequest& request) {
  obs::HttpResponse resp;
  if (request.target == "/metrics") {
    resp.body = obs::render_prometheus(obs::Registry::global().snapshot());
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (request.target == "/healthz") {
    resp.body = render_healthz(ops_health());
    resp.content_type = "application/json";
  } else if (request.target == "/sweeps") {
    resp.body = render_sweeps(ops_sweeps());
    resp.content_type = "application/json";
  } else {
    resp.status = 404;
    resp.body = "unknown path (try /metrics, /healthz, /sweeps)\n";
  }
  return resp;
}

}  // namespace esched::svc
