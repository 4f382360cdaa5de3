#include "run/proc.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "run/endpoint.hpp"
#include "run/pool_run.hpp"
#include "run/worker_slots.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::run {

namespace {

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

constexpr PoolNames kNames{"SubprocessPool", "pool.task", "pool.retries",
                          "task:", "pool", WorkerSlots::kTrackBase};

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
  PoolRun pool(sweep, retry_policy(config_), kNames, stats_, progress_,
               tracer_);
  stats_.threads = std::max<std::size_t>(
      1, std::min(config_.workers != 0 ? config_.workers
                                       : SweepRunner::default_jobs(),
                  pool.cells()));
  // Unwinding — budget exhaustion, a deterministic kError, a throwing
  // progress callback — destroys the slots, which kill and reap every
  // worker: no zombies.
  WorkerSlots slots(stats_.threads, std::move(worker),
                    config_.task_timeout_seconds, pool, tracer_);
  slots.set_telemetry([this](std::size_t slot,
                             std::vector<std::uint8_t>& body) {
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
  });
  return pool.run(slots);
}

}  // namespace esched::run
