#include "svc/coordinator.hpp"

#include <chrono>
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

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      sessions_("esched-coordinator", "svc.coordinator", config_.auth_token,
                *this),
      fleet_(config_, net::SessionClient::kNeverAbandon, *this),
      queue_(config_.retry, run::SweepRunner::prefix_sharing_default()) {
  ESCHED_REQUIRE(!config_.agents.empty(),
                 "esched-coordinator: no agents configured (pass --agents "
                 "or set ESCHED_AGENTS)");
  ESCHED_REQUIRE(!config_.journal_path.empty(),
                 "esched-coordinator: no journal path configured (pass "
                 "--journal)");
}

std::uint16_t Coordinator::start() {
  net::start_http_plane(
      http_, config_,
      {{"/healthz", [this] { return render_healthz(ops_health()); }},
       {"/sweeps", [this] { return render_sweeps(ops_sweeps()); }}});
  journal_.set_warn_bytes(config_.journal_warn_bytes);
  journal_.open(config_.journal_path, run::FaultPlan::from_env(),
                [this](const wire::JournalRecord& record) {
                  store_[record.cell_key] = record.result_bytes;
                });
  const std::uint16_t port = sessions_.listen(config_.bind_host, config_.port);
  started_at_ = Clock::now();
  return port;
}

void Coordinator::serve() {
  run::SigpipeGuard sigpipe;
  for (;;) step();
}

// ---- the poll loop ----------------------------------------------------

void Coordinator::step() {
  const Clock::time_point now = Clock::now();
  fleet_.tick(now);
  // Every agent rejected us for good: no queued cell can ever run.
  const std::string unusable = fleet_.unusable_reason(now);
  if (!unusable.empty() && !queue_.empty()) {
    fail_cells(queue_.fail_all("esched-coordinator: " + unusable));
  }

  std::vector<struct pollfd> fds;
  sessions_.register_fds(fds);
  fleet_.register_fds(fds);
  http_.register_fds(fds);

  // Sessions and the HTTP plane have no deadlines of their own.
  if (run::poll_fds(fds,
                    run::poll_timeout_ms(run::wake_time(fleet_, queue_), now),
                    "esched-coordinator")) {
    http_.on_poll(fds.data(), fds.size());
    sessions_.on_poll(fds);
    fleet_.on_poll(fds);
  }
}

// ---- client sessions ---------------------------------------------------

std::size_t Coordinator::welcome_slots() const { return fleet_.ready_slots(); }

void Coordinator::on_session_frame(std::uint64_t id,
                                   const wire::FrameHeader& header,
                                   std::vector<std::uint8_t>& body) {
  if (header.type == wire::FrameType::kSubmit) {
    on_submit(id, body);
  } else {
    sessions_.close(id, "unexpected frame type in session");
  }
}

/// The sweep outlives the connection: it keeps running detached and the
/// client resumes it later by submitting it again.
void Coordinator::on_session_closed(std::uint64_t id,
                                    const std::string& /*why*/) {
  for (auto& [sweep_id, sweep] : sweeps_) {
    if (sweep.client == id) sweep.client = 0;
  }
}

void Coordinator::on_submit(std::uint64_t id,
                            const std::vector<std::uint8_t>& body) {
  wire::SubmitRequest request;
  try {
    request = wire::decode_submit(body);
  } catch (const Error& e) {
    sessions_.close(id, "protocol corruption (" + std::string(e.what()) + ")");
    return;
  }
  bump("svc.submits");
  const Clock::time_point now = Clock::now();

  // Canonical keys first: a spec that cannot cross a process boundary
  // (or whose grid clashes with an existing sweep id) must be rejected
  // before any state changes.
  std::vector<std::string> keys;
  keys.reserve(request.specs.size());
  try {
    for (const run::JobSpec& spec : request.specs) {
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
      send_cell_done(id, i, keys[i]);
      continue;
    }
    queue_.add(keys[i], request.specs[i], {request.sweep_id, i}, now);
  }
  maybe_finish_sweep(request.sweep_id);
}

/// Attach `id` to the sweep (stealing it from any previous client — the
/// newest connection wins, which is what session resumption means) and
/// replay every kCellDone already available, plus kSweepDone if the
/// sweep already finished.
void Coordinator::attach_client(std::uint64_t id,
                                const std::string& sweep_id) {
  Sweep& sweep = sweeps_.at(sweep_id);
  sweep.client = id;
  for (std::size_t i = 0; i < sweep.keys.size(); ++i) {
    if (!sweep.delivered[i]) continue;
    if (!send_cell_done(id, i, sweep.keys[i])) return;  // session dropped
  }
  if (sweep.done) send_sweep_done(id, sweep);
}

void Coordinator::send_error(std::uint64_t id, const std::string& message) {
  sessions_.send(id, wire::encode_frame(wire::FrameType::kError, 0, 0,
                                     wire::encode_error(message)));
}

void Coordinator::send_sweep_done(std::uint64_t id, const Sweep& sweep) {
  wire::SweepDone done;
  done.simulated = sweep.simulated;
  done.journal_hits = sweep.journal_hits;
  sessions_.send(id, wire::encode_frame(wire::FrameType::kSweepDone, 0, 0,
                                        wire::encode_sweep_done(done)));
}

bool Coordinator::send_cell_done(std::uint64_t client, std::size_t index,
                                 const std::string& key) {
  // The stored bytes are the worker's encode_result output, verbatim —
  // the client's decode sees exactly what a fresh simulation produced.
  return sessions_.send(client,
                        wire::encode_frame(wire::FrameType::kCellDone,
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
  queue_.forget(sweep_id);
  if (client != 0) send_error(client, message);
}

// ---- work management --------------------------------------------------

bool Coordinator::claim(std::size_t /*agent*/, Clock::time_point now,
                        run::Dispatch& work) {
  if (!queue_.claim(now, work)) return false;
  bump("svc.cells_dispatched", queue_.task_size(work.task));
  return true;
}

bool Coordinator::on_result(std::size_t /*agent*/, const run::Endpoint& ep,
                            std::vector<std::uint8_t> bytes,
                            Clock::time_point /*now*/) {
  std::vector<run::SettledCell> settled;
  if (!queue_.complete(ep.task, std::move(bytes), settled)) return false;
  for (run::SettledCell& cell : settled) {
    if (!cell.ok()) continue;
    if (cell.rebilled) bump("svc.cells_rebilled");
    deliver(cell, static_cast<std::uint32_t>(ep.task), ep.attempt);
  }
  // A member's error outcome fails only that member's sweeps.
  fail_cells(settled);
  return true;
}

/// Journal, store and stream one produced cell.
void Coordinator::deliver(run::SettledCell& cell, std::uint32_t task,
                          std::uint32_t attempt) {
  // Stored and journaled *verbatim* (the CRC already vouched for the
  // bytes): decoding and re-encoding could only risk the byte-identity
  // the journal promises. Durability first: the record is on disk (or
  // counted as dropped) before any client sees the result.
  wire::JournalRecord record;
  record.cell_key = cell.key;
  record.result_bytes = cell.result;
  journal_.append(record, task, attempt);
  store_[cell.key] = std::move(cell.result);
  bump("svc.cells_completed");

  std::set<std::string> counted;  // one simulated++ per sweep per cell
  for (const run::CellWaiter& waiter : cell.waiters) {
    const auto sweep = sweeps_.find(waiter.sweep);
    if (sweep == sweeps_.end()) continue;  // sweep failed meanwhile
    Sweep& s = sweep->second;
    if (s.delivered[waiter.index]) continue;
    s.delivered[waiter.index] = true;
    ++s.delivered_count;
    if (counted.insert(waiter.sweep).second) ++s.simulated;
    if (s.client != 0) send_cell_done(s.client, waiter.index, cell.key);
  }
  for (const std::string& sweep_id : counted) {
    if (sweeps_.count(sweep_id) != 0) maybe_finish_sweep(sweep_id);
  }
}

void Coordinator::on_transient(std::size_t /*agent*/, const run::Endpoint& ep,
                               const std::string& reason,
                               Clock::time_point now) {
  fail_cells(queue_.fail_attempt(ep.task, reason, now));
}

void Coordinator::on_error(std::size_t /*agent*/, const run::Endpoint& ep,
                           const std::string& message) {
  fail_cells(queue_.fail_task(ep.task, message));
}

/// Deterministic failure, attempt-budget exhaustion or a fleet gone for
/// good: every sweep waiting on a failed cell fails (the pools fail the
/// whole sweep on the same conditions), other sweeps are untouched.
void Coordinator::fail_cells(const std::vector<run::SettledCell>& cells) {
  for (const run::SettledCell& cell : cells) {
    if (cell.ok()) continue;
    for (const run::CellWaiter& waiter : cell.waiters) {
      fail_sweep(waiter.sweep, cell.error);
    }
  }
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
  health.clients = sessions_.size();
  // An operator probing /healthz wants one bit: is this fleet able to
  // make progress? Dead agents (permanent rejections) mean it may not.
  health.ok = journal_.is_open();
  for (const run::AgentLiveness& agent : health.agents) {
    if (agent.state == "dead") health.ok = false;
  }
  return health;
}

OpsSweeps Coordinator::ops_sweeps() const {
  OpsSweeps out;
  out.cells_in_flight = queue_.in_flight_cells();
  out.cells_pending = queue_.queued_cells();
  for (const auto& [id, sweep] : sweeps_) {
    OpsSweepInfo info;
    info.id = id;
    info.total = sweep.keys.size();
    info.delivered = sweep.delivered_count;
    info.simulated = sweep.simulated;
    info.journal_hits = sweep.journal_hits;
    info.done = sweep.done;
    info.attached = sweep.client != 0;
    const run::SweepProgress progress = run::sweep_progress(
        sweep.delivered_count, sweep.keys.size(), sweep.submitted_at);
    info.elapsed_seconds = progress.elapsed_seconds;
    info.eta_seconds = progress.eta_seconds;
    out.sweeps.push_back(std::move(info));
  }
  return out;
}

}  // namespace esched::svc
