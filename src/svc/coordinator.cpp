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
      sessions_("esched-coordinator", "svc.coordinator", config_.auth_token,
                *this),
      fleet_(config_, net::AgentFleet::kNeverAbandon, *this) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "esched-coordinator: max_attempts must be >= 1");
  ESCHED_REQUIRE(!config_.agents.empty(),
                 "esched-coordinator: no agents configured (pass --agents "
                 "or set ESCHED_AGENTS)");
  ESCHED_REQUIRE(!config_.journal_path.empty(),
                 "esched-coordinator: no journal path configured (pass "
                 "--journal)");
  retry_ = run::retry_policy(config_);
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

  std::vector<struct pollfd> fds;
  sessions_.register_fds(fds);
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
    sessions_.on_poll(fds);
    fleet_.on_poll(fds);
  }
}

int Coordinator::next_timeout_ms(Clock::time_point now) const {
  Clock::time_point nearest = fleet_.next_deadline();
  for (const std::string& key : pending_) {
    const auto it = cells_.find(key);
    if (it != cells_.end() && !it->second.in_flight) {
      nearest = std::min(nearest, it->second.ready_at);
    }
  }
  return run::poll_timeout_ms(nearest, now);
}

// ---- client sessions ---------------------------------------------------

std::size_t Coordinator::welcome_slots() const { return fleet_.ready_slots(); }

void Coordinator::on_session_frame(std::uint64_t id,
                                   const wire::FrameHeader& header,
                                   std::vector<std::uint8_t>& body) {
  switch (header.type) {
    case wire::FrameType::kPing:
      sessions_.send(id, wire::encode_frame(wire::FrameType::kPong,
                                            header.task_id, header.attempt,
                                            {}));
      break;
    case wire::FrameType::kSubmit:
      on_submit(id, body);
      break;
    case wire::FrameType::kAttach:
      on_attach(id, body);
      break;
    default:
      sessions_.close(id, "unexpected frame type in session");
  }
}

/// The sweep outlives the connection: it keeps running detached and the
/// client resumes it later with kAttach.
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
      publish_journal_hits();
      send_cell_done(id, i, keys[i]);
      continue;
    }
    auto cell = cells_.find(keys[i]);
    if (cell == cells_.end()) {
      Cell fresh;
      fresh.spec = request.specs[i];
      if (sharing_ && fresh.spec.meta == nullptr) {
        fresh.share = run::share_key(fresh.spec);
      }
      fresh.ready_at = now;
      cell = cells_.emplace(keys[i], std::move(fresh)).first;
      enqueue(cell->first, cell->second);
    }
    cell->second.waiters.emplace_back(request.sweep_id, i);
  }
  maybe_finish_sweep(request.sweep_id);
}

void Coordinator::on_attach(std::uint64_t id,
                            const std::vector<std::uint8_t>& body) {
  std::string sweep_id;
  try {
    sweep_id = wire::decode_attach(body);
  } catch (const Error& e) {
    sessions_.close(id, "protocol corruption (" + std::string(e.what()) + ")");
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
  done.total = static_cast<std::uint64_t>(sweep.keys.size());
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
  for (auto& [key, cell] : cells_) {
    std::erase_if(cell.waiters,
                  [&](const auto& w) { return w.first == sweep_id; });
  }
  if (client != 0) send_error(client, message);
}

// ---- work management --------------------------------------------------

void Coordinator::enqueue(const std::string& key, Cell& cell) {
  pending_.push_back(key);
  if (!cell.share.empty()) queued_by_share_[cell.share].push_back(key);
}

void Coordinator::unindex(const std::string& key, const Cell& cell) {
  if (cell.share.empty()) return;
  const auto it = queued_by_share_.find(cell.share);
  if (it == queued_by_share_.end()) return;
  std::erase(it->second, key);
  if (it->second.empty()) queued_by_share_.erase(it);
}

/// Pop the first pending cell whose backoff elapsed, skipping (and
/// discarding) stale queue entries for cells that completed, failed or
/// left in another cell's task while queued. The task it leads takes
/// along the first ready queued cells of its share group, as
/// run::plan_groups groups them (at most wire::kMaxTaskMembers in all),
/// and starts each member's next attempt under one fresh dispatch id.
bool Coordinator::claim(Clock::time_point now, run::Dispatch& work) {
  for (std::size_t i = 0; i < pending_.size();) {
    const auto it = cells_.find(pending_[i]);
    const bool stale = it == cells_.end() || it->second.in_flight;
    if (!stale && it->second.ready_at > now) {
      ++i;
      continue;
    }
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    if (stale) continue;

    std::vector<std::string> keys{it->first};
    run::ShareGroup group{{0}, {}};
    if (!it->second.share.empty()) {
      // Only as many candidates as one task can carry: the leader heads
      // group 0, and the planner stops it at the same cap.
      std::vector<const run::JobSpec*> specs{&it->second.spec};
      for (const std::string& key : queued_by_share_.at(it->second.share)) {
        if (keys.size() == wire::kMaxTaskMembers) break;
        const Cell& cell = cells_.at(key);
        if (key != it->first && cell.ready_at <= now) {
          keys.push_back(key);
          specs.push_back(&cell.spec);
        }
      }
      if (specs.size() > 1) {
        group = run::plan_groups(specs, true, wire::kMaxTaskMembers).front();
      }
    }
    Task task;
    std::vector<run::JobSpec> members;
    work.attempt = it->second.attempts;
    for (const std::size_t m : group.members) {
      Cell& cell = cells_.at(keys[m]);
      unindex(keys[m], cell);
      cell.in_flight = true;
      ++cell.attempts;
      members.push_back(cell.spec);
      task.keys.push_back(keys[m]);
      bump("svc.cells_dispatched");
    }
    task.payload = wire::encode_task(members);
    work.task = next_dispatch_;
    work.payload = &in_flight_.emplace(next_dispatch_++, std::move(task))
                         .first->second.payload;
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
  std::vector<wire::Outcome> outcomes;
  try {
    outcomes = wire::decode_outcomes(bytes);
  } catch (const Error&) {
    return false;
  }
  if (outcomes.size() != flight->second.keys.size()) return false;
  // The outcomes own every result now; free the reply before they are
  // journaled, so a group costs no more peak memory than its results.
  std::vector<std::uint8_t>().swap(bytes);
  const std::vector<std::string> keys = std::move(flight->second.keys);
  in_flight_.erase(flight);

  std::uint64_t produced = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (!outcomes[k].ok) {
      // Deterministic failure of this member alone: retrying reruns the
      // same simulation.
      const auto cell = cells_.find(keys[k]);
      const std::string label =
          cell != cells_.end() ? cell->second.spec.label : keys[k];
      fail_cell(keys[k], "sweep cell \"" + label +
                             "\" failed: " + outcomes[k].error);
      continue;
    }
    ++produced;
    deliver(keys[k], std::move(outcomes[k].result), task, slot.attempt);
  }
  // One produced member was simulated, the others re-billed from it.
  if (produced > 1) bump("svc.cells_rebilled", produced - 1);
  return true;
}

/// Journal, store and stream one produced cell.
void Coordinator::deliver(const std::string& key,
                          std::vector<std::uint8_t> bytes, std::uint32_t task,
                          std::uint32_t attempt) {
  // Stored and journaled *verbatim* (the CRC already vouched for the
  // bytes): decoding and re-encoding could only risk the byte-identity
  // the journal promises. Durability first: the record is on disk (or
  // counted as dropped) before any client sees the result.
  wire::JournalRecord record;
  record.cell_key = key;
  record.result_bytes = bytes;
  journal_.append(record, task, attempt);
  store_[key] = std::move(bytes);
  bump("svc.cells_completed");

  const auto it = cells_.find(key);
  if (it == cells_.end()) return;  // no one was waiting
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
}

/// A failed attempt requeues every member of the task, each under its
/// own attempt budget.
void Coordinator::on_transient(std::size_t task, const std::string& reason,
                               Clock::time_point now) {
  const auto flight = in_flight_.find(static_cast<std::uint32_t>(task));
  if (flight == in_flight_.end()) return;
  const std::vector<std::string> keys = std::move(flight->second.keys);
  in_flight_.erase(flight);
  for (const std::string& key : keys) {
    const auto it = cells_.find(key);
    if (it == cells_.end()) continue;
    Cell& cell = it->second;
    cell.in_flight = false;
    cell.failures.push_back("attempt " + std::to_string(cell.attempts) +
                            ": " + reason);
    if (cell.attempts >= config_.max_attempts) {
      fail_cell(key, "sweep cell \"" + cell.spec.label + "\" failed after " +
                         std::to_string(cell.attempts) + " attempt(s): " +
                         join_failures(cell.failures));
      continue;
    }
    cell.ready_at = after(now, retry_.backoff_seconds(cell.attempts));
    enqueue(key, cell);
  }
}

void Coordinator::on_error(std::size_t task, const std::string& message) {
  const auto flight = in_flight_.find(static_cast<std::uint32_t>(task));
  if (flight == in_flight_.end()) return;
  const std::vector<std::string> keys = std::move(flight->second.keys);
  in_flight_.erase(flight);
  // Deterministic failure of the whole task: retrying reruns the same
  // simulation.
  for (const std::string& key : keys) {
    const auto cell = cells_.find(key);
    const std::string label =
        cell != cells_.end() ? cell->second.spec.label : key;
    fail_cell(key, "sweep cell \"" + label + "\" failed: " + message);
  }
}

/// Deterministic failure or attempt-budget exhaustion: every sweep
/// waiting on this cell fails (the in-process pools fail the whole sweep
/// on the same conditions), other sweeps are untouched.
void Coordinator::fail_cell(const std::string& key,
                            const std::string& message) {
  const auto it = cells_.find(key);
  if (it == cells_.end()) return;
  if (!it->second.in_flight) unindex(key, it->second);
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

}  // namespace esched::svc
