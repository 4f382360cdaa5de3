#include "run/proc.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "obs/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/endpoint.hpp"
#include "run/pool_run.hpp"
#include "run/worker_slots.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::run {

namespace {

using Clock = EndpointClock;

using obs::bump;

/// Export an environment variable for a scope (workers inherit the
/// supervisor's environment at spawn time); restores the previous value —
/// or unsets — on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    had_previous_ = std::getenv(name) != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_previous_) {
      ::setenv(name_, previous_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string previous_;
  bool had_previous_ = false;
};

/// One run() of the pool: the PoolRun (cell queue, results) fed to
/// esched-worker children through WorkerSlots. Unwinding — budget
/// exhaustion, a deterministic kError, a throwing progress callback —
/// destroys the slots, which kill and reap every worker: no zombies.
class Supervisor final : public WorkerSlotsOwner {
 public:
  Supervisor(const SubprocessPoolConfig& config, std::string worker_path,
             const std::vector<JobSpec>& sweep, SweepStats& stats,
             const ProgressCallback& progress, obs::Tracer* tracer,
             obs::FleetAggregator* fleet)
      : tracer_(tracer),
        fleet_(fleet),
        tasks_(sweep, retry_policy(config), "pool.task", stats, progress),
        workers_(std::max<std::size_t>(
            1, std::min(config.workers != 0 ? config.workers
                                            : SweepRunner::default_jobs(),
                        tasks_.queue().queued_cells()))),
        slots_(workers_, std::move(worker_path), config.task_timeout_seconds,
               *this, tracer) {
    tasks_.set_lanes(workers_);
    stats.threads = workers_;
  }
  // slots_ holds this object's address.
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  std::vector<sim::SimResult> run() {
    while (!tasks_.done()) step();
    slots_.close_all();
    return tasks_.finish();
  }

  // ---- WorkerSlotsOwner -----------------------------------------------

  bool claim(std::size_t /*slot*/, Clock::time_point now,
             Dispatch& work) override {
    return tasks_.queue().claim(now, work);
  }

  bool on_answer(std::size_t slot, const Endpoint& ep, wire::FrameType type,
                 std::vector<std::uint8_t>& body) override {
    if (type == wire::FrameType::kError) {
      std::string message;
      try {
        message = wire::decode_error(body);
      } catch (const Error&) {
        message = "(undecodable error payload)";
      }
      // Deterministic failure: retrying reruns the same deterministic
      // simulation, so fail the sweep fast with the worker's message.
      tasks_.fail_task(ep.task, message);
    }
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double> seconds = now - ep.dispatched;
    std::string label;
    if (!tasks_.complete(ep.task, std::move(body), seconds.count(), slot,
                         label)) {
      return false;
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete_span(
          "task:" + (label.empty() ? std::to_string(ep.task) : label) + "#" +
              std::to_string(ep.attempt),
          "pool", ep.dispatched, now,
          WorkerSlots::kTrackBase + static_cast<std::uint32_t>(slot));
    }
    return true;
  }

  bool on_telemetry(std::size_t slot, const Endpoint& /*ep*/,
                    std::vector<std::uint8_t>& body) override {
    // Same machine — CLOCK_MONOTONIC is machine-wide, offset 0.
    try {
      const obs::Telemetry telemetry = wire::decode_telemetry(body);
      if (fleet_ != nullptr) {
        fleet_->ingest("worker." + std::to_string(slot), telemetry, 0);
      }
    } catch (const Error&) {
      return false;
    }
    return true;
  }

  void on_attempt_failed(std::size_t /*slot*/, const Endpoint& ep,
                         const std::string& reason) override {
    // Throws on budget exhaustion.
    tasks_.fail_attempt(ep.task, with_flight_dump(ep.task, ep.attempt, reason),
                        Clock::now());
    bump("pool.retries");
  }

 private:
  /// When flight recording is on (ESCHED_FLIGHT_DIR, inherited by the
  /// workers), a crashed attempt leaves a dump at a deterministic path —
  /// name it in the failure reason so the postmortem is one message away.
  static std::string with_flight_dump(std::size_t task,
                                      std::uint32_t attempt,
                                      const std::string& reason) {
    const char* dir = std::getenv("ESCHED_FLIGHT_DIR");
    if (dir == nullptr || *dir == '\0') return reason;
    const std::string path = obs::FlightRecorder::dump_path(
        dir, static_cast<std::uint32_t>(task), attempt);
    if (::access(path.c_str(), R_OK) != 0) return reason;
    return reason + "; flight recorder: " + path;
  }

  /// One turn of the poll loop. A backoff ready-time bounds the wait only
  /// while a slot is idle: with every worker busy, only an answer (or an
  /// attempt deadline) can make progress, so the loop sleeps in poll().
  void step() {
    const Clock::time_point now = Clock::now();
    slots_.tick(now);
    std::vector<struct pollfd> fds;
    slots_.register_fds(fds);
    Clock::time_point deadline = slots_.next_deadline();
    if (slots_.busy_count() < workers_) {
      deadline = std::min(deadline, tasks_.queue().next_ready());
    }
    const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                          static_cast<nfds_t>(fds.size()),
                          poll_timeout_ms(deadline, now));
    if (rc < 0 && errno != EINTR) {
      throw Error("SubprocessPool: poll failed: " +
                  std::string(std::strerror(errno)));
    }
    if (rc > 0) slots_.on_poll(fds);
  }

  obs::Tracer* tracer_;
  obs::FleetAggregator* fleet_;
  PoolRun tasks_;
  std::size_t workers_;
  WorkerSlots slots_;
};

}  // namespace

SubprocessPool::SubprocessPool(SubprocessPoolConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "SubprocessPool: max_attempts must be >= 1");
}

std::string SubprocessPool::find_worker() {
  return find_sibling_binary("ESCHED_WORKER", "esched-worker");
}

bool SubprocessPool::available() { return !find_worker().empty(); }

std::vector<sim::SimResult> SubprocessPool::run(
    const std::vector<JobSpec>& sweep) {
  if (sweep.empty()) {
    stats_ = SweepStats{};
    return {};
  }
  std::string worker = config_.worker_path;
  if (worker.empty()) worker = find_worker();
  ESCHED_REQUIRE(!worker.empty(),
                 "SubprocessPool: esched-worker binary not found (set "
                 "ESCHED_WORKER or pass SubprocessPoolConfig::worker_path)");
  SigpipeGuard sigpipe;
  // Fleet telemetry rides on the environment: workers spawned during this
  // run see ESCHED_TELEMETRY=1 and ship kTelemetry frames before each
  // answer.
  std::optional<ScopedEnv> telemetry_env;
  if (fleet_ != nullptr) telemetry_env.emplace("ESCHED_TELEMETRY", "1");
  Supervisor supervisor(config_, std::move(worker), sweep, stats_, progress_,
                        tracer_, fleet_);
  return supervisor.run();
}

}  // namespace esched::run
