#include "run/worker_slots.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <unistd.h>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace esched::run {

using obs::bump;

WorkerSlots::WorkerSlots(std::size_t count, std::string worker_path,
                         double task_timeout_seconds, LaneOwner& owner,
                         obs::Tracer* tracer)
    : slots_(count),
      worker_path_(std::move(worker_path)),
      task_timeout_seconds_(task_timeout_seconds),
      owner_(owner),
      tracer_(tracer) {}

std::size_t WorkerSlots::idle_lanes() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return !s.ep.busy(); }));
}

// ---- the owner's poll loop ---------------------------------------------

void WorkerSlots::tick(Clock::time_point now) {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].ep.deadline_expired(now)) continue;
    bump("pool.timeouts");
    lose(slot, "timed out after " + format_seconds(task_timeout_seconds_) +
                   "s (",
         ")");
  }
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    // A failed dispatch leaves the slot idle: offer it the next attempt.
    while (!slots_[slot].ep.busy()) {
      Dispatch work;
      if (!owner_.claim(slot, now, work)) return;  // nothing dispatchable
      dispatch(slot, work, now);
    }
  }
}

WorkerSlots::Clock::time_point WorkerSlots::next_deadline() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const Slot& s : slots_) {
    if (s.ep.busy() && s.ep.has_deadline) {
      nearest = std::min(nearest, s.ep.deadline);
    }
  }
  return nearest;
}

void WorkerSlots::register_fds(std::vector<struct pollfd>& fds) {
  poll_base_ = fds.size();
  polled_.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].proc.alive()) continue;
    fds.push_back({slots_[slot].proc.from_child, POLLIN, 0});
    polled_.push_back(slot);
  }
}

void WorkerSlots::on_poll(const std::vector<struct pollfd>& fds) {
  ESCHED_REQUIRE(fds.size() >= poll_base_ + polled_.size(),
                 "WorkerSlots::on_poll: fds do not match register_fds");
  for (std::size_t k = 0; k < polled_.size(); ++k) {
    if ((fds[poll_base_ + k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    // A callback may have retired this slot since the poll; workers are
    // only spawned by tick(), so a dead slot here was polled as alive.
    if (slots_[polled_[k]].proc.alive()) on_readable(polled_[k]);
  }
}

// ---- lifecycle ---------------------------------------------------------

void WorkerSlots::retire(std::size_t slot, const std::string& reason) {
  Slot& s = slots_[slot];
  s.ep.clear();
  if (!s.proc.alive()) return;
  obs::log_debug("run.slots", "retiring worker",
                 {{"slot", slot}, {"reason", reason}});
  ::kill(s.proc.pid, SIGKILL);
  reap(slot, nullptr);
}

void WorkerSlots::close_all() noexcept {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    Slot& s = slots_[slot];
    if (!s.proc.alive()) continue;
    if (s.ep.busy()) {
      ::kill(s.proc.pid, SIGKILL);
    } else {
      // Graceful: EOF on stdin is the worker's shutdown signal.
      ::close(s.proc.to_child);
      s.proc.to_child = -1;
    }
    reap(slot, nullptr);
    s.ep.clear();
  }
}

void WorkerSlots::dispatch(std::size_t slot, const Dispatch& work,
                           Clock::time_point now) {
  Slot& s = slots_[slot];
  s.ep.begin(work.task, work.attempt, now, task_timeout_seconds_);
  if (!s.proc.alive()) {
    try {
      s.proc = spawn_worker(worker_path_);
    } catch (const Error& e) {
      // fork/pipe exhaustion: transient, so it costs this attempt only.
      const Endpoint ep = s.ep;
      s.ep.clear();
      fail(slot, ep, std::string("cannot spawn worker: ") + e.what());
      return;
    }
    s.spawned = now;
    bump("pool.spawns");
    if (s.lost) bump("pool.respawns");
    s.lost = false;
  }
  const std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::FrameType::kJob, static_cast<std::uint32_t>(work.task),
      work.attempt, *work.payload);
  if (!write_all_fd(s.proc.to_child, frame.data(), frame.size())) {
    // The worker died before accepting the job (EPIPE): same handling as
    // a death mid-task, which also classifies exec failures.
    lose(slot, "worker died before accepting the job (", ")");
  }
}

/// reap_worker + the worker-lifetime span.
std::string WorkerSlots::reap(std::size_t slot, int* exit_status) noexcept {
  Slot& s = slots_[slot];
  const pid_t pid = s.proc.pid;
  const std::string death = reap_worker(s.proc, exit_status);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->complete_span(
        "worker:" + std::to_string(slot) + " pid " + std::to_string(pid),
        "pool", s.spawned, Clock::now(),
        kTrackBase + static_cast<std::uint32_t>(slot));
  }
  s.frames.reset();
  return death;
}

// ---- failures ----------------------------------------------------------

void WorkerSlots::lose(std::size_t slot, const std::string& prefix,
                       const std::string& suffix) {
  Slot& s = slots_[slot];
  const Endpoint ep = s.ep;
  s.ep.clear();
  if (s.proc.alive()) ::kill(s.proc.pid, SIGKILL);
  int status = -1;
  const std::string death = reap(slot, &status);
  if (status == 127) {
    throw Error("cannot execute worker binary \"" + worker_path_ +
                "\" (exit 127 from exec); set ESCHED_WORKER or build the "
                "esched-worker target");
  }
  bump("pool.worker_deaths");
  s.lost = true;
  if (!ep.busy()) {
    obs::log_debug("run.slots", "idle worker lost",
                   {{"slot", slot}, {"death", prefix + death + suffix}});
    return;
  }
  fail(slot, ep, prefix + death + suffix);
}

void WorkerSlots::corrupt(std::size_t slot, const std::string& what) {
  bump("pool.corrupt_frames");
  lose(slot, "protocol corruption (" + what + "; worker ", ")");
}

/// When flight recording is on (ESCHED_FLIGHT_DIR, inherited by the
/// workers), a crashed attempt leaves a dump at a deterministic path —
/// name it in the failure reason so the postmortem is one message away.
void WorkerSlots::fail(std::size_t slot, const Endpoint& ep,
                       std::string reason) {
  const char* dir = std::getenv("ESCHED_FLIGHT_DIR");
  if (dir != nullptr && *dir != '\0') {
    const std::string path = obs::FlightRecorder::dump_path(
        dir, static_cast<std::uint32_t>(ep.task), ep.attempt);
    if (::access(path.c_str(), R_OK) == 0) {
      reason += "; flight recorder: " + path;
    }
  }
  owner_.on_transient(slot, ep, reason, Clock::now());
}

// ---- inbound frames ----------------------------------------------------

void WorkerSlots::on_readable(std::size_t slot) {
  Slot& s = slots_[slot];
  std::uint8_t chunk[65536];
  const ssize_t n = ::read(s.proc.from_child, chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    lose(slot, "worker ",
         ", read failed: " + std::string(std::strerror(errno)) +
             " before answering");
    return;
  }
  if (n == 0) {
    lose(slot, "worker ",
         std::string(s.frames.mid_frame() ? ", mid-frame" : "") +
             " before answering");
    return;
  }
  s.frames.append(chunk, static_cast<std::size_t>(n));
  process_frames(slot);
}

void WorkerSlots::process_frames(std::size_t slot) {
  Slot& s = slots_[slot];
  while (s.proc.alive()) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corruption;
    const FrameAssembler::Status status =
        s.frames.next(header, body, corruption);
    if (status == FrameAssembler::Status::kNeedMore) return;
    if (status == FrameAssembler::Status::kCorrupt) {
      corrupt(slot, corruption);
      return;
    }
    if (!s.ep.busy() ||
        header.task_id != static_cast<std::uint32_t>(s.ep.task) ||
        header.attempt != s.ep.attempt) {
      corrupt(slot, "answer for a task this worker does not hold");
      return;
    }
    if (header.type == wire::FrameType::kTelemetry) {
      // Advisory shipment ahead of the answer: keep reading.
      if (telemetry_ && !telemetry_(slot, body)) {
        corrupt(slot, "undecodable telemetry");
        return;
      }
      bump("pool.telemetry_frames");
      continue;
    }
    if (header.type != wire::FrameType::kResult &&
        header.type != wire::FrameType::kError) {
      corrupt(slot, "unexpected frame type");
      return;
    }
    const Endpoint ep = s.ep;
    s.ep.clear();
    if (header.type == wire::FrameType::kError) {
      owner_.on_error(
          slot, ep, wire::decode_error_or(body, "(undecodable error payload)"));
    } else if (!owner_.on_result(slot, ep, std::move(body), Clock::now())) {
      s.ep = ep;
      corrupt(slot, "undecodable answer");
      return;
    }
  }
}

}  // namespace esched::run
