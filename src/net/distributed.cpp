#include "net/distributed.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>

#include "obs/tracer.hpp"
#include "run/endpoint.hpp"
#include "run/pool_run.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace {

using Clock = run::EndpointClock;
namespace wire = run::wire;

/// One run() of the pool: the PoolRun (cell queue, results) fed to the
/// agents through an AgentFleet — the TCP sibling of the Supervisor in
/// run/proc.cpp.
class FleetRun final : public FleetOwner {
 public:
  /// With a telemetry sink, every task carries a trace context so the
  /// remote simulate span (flow id = parent_span_id) stitches under this
  /// sweep's dispatch spans.
  FleetRun(const DistributedPoolConfig& config,
           const std::vector<run::JobSpec>& sweep, run::SweepStats& stats,
           const run::ProgressCallback& progress, obs::Tracer* tracer,
           obs::FleetAggregator* telemetry)
      : stats_(stats),
        tracer_(tracer),
        stamp_trace_(telemetry != nullptr),
        tasks_(sweep, run::retry_policy(config), "net.task", stats, progress,
               stamp_trace_),
        fleet_(config, config.connect_attempts, *this, tracer, telemetry) {
    tasks_.set_lanes(config.agents.size());
  }
  /// Close every connection, on success and on any failure alike — the
  /// agents then discard orphaned work — and capture the fleet picture
  /// (slot total, per-agent liveness) for last_stats().
  ~FleetRun() {
    const Clock::time_point now = Clock::now();
    stats_.threads = fleet_.peak_slots();
    stats_.agent_liveness = fleet_.liveness(now);
    fleet_.disconnect_all(now);
  }
  // fleet_ holds this object's address.
  FleetRun(const FleetRun&) = delete;
  FleetRun& operator=(const FleetRun&) = delete;

  std::vector<sim::SimResult> run() {
    while (!tasks_.done()) step();
    return tasks_.finish();
  }

  // ---- FleetOwner -----------------------------------------------------

  bool claim(Clock::time_point now, run::Dispatch& work) override {
    return tasks_.queue().claim(now, work);
  }

  bool on_result(std::size_t agent, const run::Endpoint& slot,
                 std::vector<std::uint8_t> bytes,
                 Clock::time_point now) override {
    const std::size_t task = slot.task;
    const std::chrono::duration<double> seconds = now - slot.dispatched;
    std::string label;
    if (!tasks_.complete(task, std::move(bytes), seconds.count(), agent,
                         label)) {
      return false;
    }
    const std::uint32_t track =
        AgentFleet::kTrackBase + static_cast<std::uint32_t>(agent);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete_span(
          "cell:" + (label.empty() ? std::to_string(task) : label) + "#" +
              std::to_string(slot.attempt),
          "net", slot.dispatched, now, track);
      if (stamp_trace_) {
        // Flow start anchored on the dispatch span (the task's stamped
        // parent span id); the matching finish is emitted when the fleet
        // aggregator stitches the remote simulate span carrying it.
        tracer_->flow_event('s', task + 1, "dispatch", "net", 1, track,
                            slot.dispatched);
      }
    }
    return true;
  }

  void on_transient(std::size_t task, const std::string& reason,
                    Clock::time_point now) override {
    tasks_.fail_attempt(task, reason, now);  // throws on budget
  }

  void on_error(std::size_t task, const std::string& message) override {
    // Retrying reruns the same deterministic simulation on another
    // agent — fail the sweep fast.
    tasks_.fail_task(task, message);
  }

 private:
  void step() {
    const Clock::time_point now = Clock::now();
    fleet_.tick(now);
    if (!fleet_.any_usable()) {
      throw Error("DistributedPool: " + fleet_.unusable_reason(now));
    }

    // A backoff ready-time bounds the wait only while a slot is idle:
    // with every slot busy, only an answer or a fleet deadline can make
    // progress, so the loop sleeps in poll().
    std::vector<struct pollfd> fds;
    fleet_.register_fds(fds);
    Clock::time_point deadline = fleet_.next_deadline();
    if (fleet_.idle_slots() > 0) {
      deadline = std::min(deadline, tasks_.queue().next_ready());
    }
    const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                          static_cast<nfds_t>(fds.size()),
                          run::poll_timeout_ms(deadline, now));
    if (rc < 0 && errno != EINTR) {
      throw Error("DistributedPool: poll failed: " +
                  std::string(std::strerror(errno)));
    }
    if (rc > 0) fleet_.on_poll(fds);
  }

  run::SweepStats& stats_;
  obs::Tracer* tracer_;
  bool stamp_trace_;
  run::PoolRun tasks_;
  AgentFleet fleet_;
};

}  // namespace

DistributedPool::DistributedPool(DistributedPoolConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "DistributedPool: max_attempts must be >= 1");
  ESCHED_REQUIRE(config_.connect_attempts >= 1,
                 "DistributedPool: connect_attempts must be >= 1");
}

bool DistributedPool::any_agent_reachable(const std::vector<HostPort>& agents,
                                          double timeout_seconds) {
  return std::any_of(agents.begin(), agents.end(), [&](const HostPort& a) {
    return reachable(a, timeout_seconds);
  });
}

std::vector<sim::SimResult> DistributedPool::run(
    const std::vector<run::JobSpec>& sweep) {
  if (sweep.empty()) {
    stats_ = run::SweepStats{};
    return {};
  }
  ESCHED_REQUIRE(!config_.agents.empty(),
                 "DistributedPool: no agents configured (pass "
                 "DistributedPoolConfig::agents or set ESCHED_AGENTS)");
  run::SigpipeGuard sigpipe;
  return FleetRun(config_, sweep, stats_, progress_, tracer_, fleet_).run();
}

}  // namespace esched::net
