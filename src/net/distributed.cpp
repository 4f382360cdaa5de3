#include "net/distributed.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace {

using Clock = run::EndpointClock;
namespace wire = run::wire;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One run() of the pool: the TaskLedger, payloads and results of a
/// sweep, fed to the agents through an AgentFleet — the TCP sibling of
/// the Supervisor in run/proc.cpp. Every socket is owned by the fleet, so
/// unwinding (budget exhaustion, kError fail-fast) closes all connections
/// via RAII — the agents then discard orphaned work.
class PoolRun final : public FleetOwner {
 public:
  PoolRun(const DistributedPoolConfig& config,
          const std::vector<run::JobSpec>& sweep, run::SweepStats& stats,
          const run::ProgressCallback& progress, obs::Tracer* tracer,
          obs::FleetAggregator* telemetry)
      : config_(config),
        sweep_(sweep),
        stats_(stats),
        progress_(progress),
        tracer_(tracer),
        fleet_(config, config.connect_attempts, *this, tracer, telemetry) {}
  // fleet_ holds this object's address.
  PoolRun(const PoolRun&) = delete;
  PoolRun& operator=(const PoolRun&) = delete;

  std::vector<sim::SimResult> run() {
    const std::size_t n = sweep_.size();
    results_.resize(n);
    payloads_.reserve(n);
    for (const run::JobSpec& spec : sweep_) {
      payloads_.push_back(wire::encode_job(spec));  // throws on bad spec
    }
    wall_start_ = Clock::now();
    run::RetryPolicy retry;
    retry.max_attempts = config_.max_attempts;
    retry.backoff_initial_seconds = config_.backoff_initial_seconds;
    retry.backoff_max_seconds = config_.backoff_max_seconds;
    ledger_.emplace(sweep_, retry, wall_start_);
    stats_.worker_busy_seconds.assign(config_.agents.size(), 0.0);

    while (!ledger_->all_done()) step();

    disconnect_all();
    stats_.wall_seconds = seconds_since(wall_start_);
    finalize_task_stats();
    return std::move(results_);
  }

  /// Close every connection. Also the moment the fleet picture (slot
  /// total, per-agent liveness) is captured, so last_stats() carries it
  /// on success and failure alike. Never throws.
  void disconnect_all() noexcept {
    const Clock::time_point now = Clock::now();
    stats_.threads = fleet_.peak_slots();
    stats_.agent_liveness = fleet_.liveness(now);
    fleet_.disconnect_all(now);
  }

  // ---- FleetOwner -----------------------------------------------------

  bool claim(Clock::time_point now, FleetWork& work) override {
    const std::size_t task = ledger_->claim_ready(now);
    if (task == run::kNoTask) return false;  // all gated on backoff
    work.task = task;
    work.attempt = ledger_->begin_attempt(task);
    work.payload = &payloads_[task];
    return true;
  }

  bool on_result(std::size_t agent, const run::Endpoint& slot,
                 std::vector<std::uint8_t> bytes,
                 Clock::time_point now) override {
    sim::SimResult result;
    try {
      result = wire::decode_result(bytes);
    } catch (const Error&) {
      return false;
    }
    complete(agent, slot, std::move(result), now);
    return true;
  }

  void on_transient(std::size_t task, const std::string& reason,
                    Clock::time_point now) override {
    ledger_->fail_attempt(task, reason, now);  // throws on budget
  }

  void on_error(std::size_t task, const std::string& message) override {
    // Retrying reruns the same deterministic simulation on another
    // agent — fail the sweep fast.
    ledger_->fail_deterministic(task, message);
  }

 private:
  void step() {
    const Clock::time_point now = Clock::now();
    fleet_.tick(now);
    throw_if_no_usable_agents();

    std::vector<struct pollfd> fds;
    fleet_.register_fds(fds);
    Clock::time_point deadline = fleet_.next_deadline();
    Clock::time_point ready{};
    if (ledger_->next_ready_at(ready)) deadline = std::min(deadline, ready);
    const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                          static_cast<nfds_t>(fds.size()),
                          poll_timeout_ms(deadline, now));
    if (rc < 0 && errno != EINTR) {
      throw Error("DistributedPool: poll failed: " +
                  std::string(std::strerror(errno)));
    }
    if (rc > 0) fleet_.on_poll(fds);
  }

  void complete(std::size_t agent, const run::Endpoint& slot,
                sim::SimResult result, Clock::time_point now) {
    const std::size_t task = slot.task;
    const double seconds =
        std::chrono::duration<double>(now - slot.dispatched).count();
    const std::uint32_t track =
        AgentFleet::kTrackBase + static_cast<std::uint32_t>(agent);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete_span(
          "cell:" +
              (sweep_[task].label.empty() ? std::to_string(task)
                                          : sweep_[task].label) +
              "#" + std::to_string(slot.attempt),
          "net", slot.dispatched, now, track);
      if (sweep_[task].parent_span_id != 0) {
        // Flow start anchored on the dispatch span; the matching finish
        // is emitted when the fleet aggregator stitches the remote
        // simulate span carrying the same id.
        tracer_->flow_event('s', sweep_[task].parent_span_id, "dispatch",
                            "net", 1, track, slot.dispatched);
      }
    }
    if (obs::counters_enabled()) {
      obs::Registry::global()
          .timer("net.task")
          .record(static_cast<std::uint64_t>(seconds * 1e9));
    }
    results_[task] = std::move(result);
    ledger_->complete(task);
    task_seconds_.push_back(seconds);
    stats_.worker_busy_seconds[agent] += seconds;
    if (progress_) {
      run::SweepProgress p;
      p.done = ledger_->done_count();
      p.total = sweep_.size();
      p.elapsed_seconds = seconds_since(wall_start_);
      p.eta_seconds = p.elapsed_seconds / static_cast<double>(p.done) *
                      static_cast<double>(p.total - p.done);
      progress_(p);
    }
  }

  void throw_if_no_usable_agents() const {
    if (fleet_.any_usable()) return;
    std::string detail;
    for (const run::AgentLiveness& live : fleet_.liveness(Clock::now())) {
      if (!detail.empty()) detail += "; ";
      detail += live.addr + ": " + live.last_error;
    }
    throw Error("DistributedPool: no usable agents remain (" + detail + ")");
  }

  void finalize_task_stats() {
    stats_.tasks = sweep_.size();
    stats_.sim_latency = run::latency_stats(task_seconds_);
    if (task_seconds_.empty()) return;
    stats_.task_min_seconds = task_seconds_.front();
    stats_.task_max_seconds = task_seconds_.front();
    for (const double s : task_seconds_) {
      stats_.cpu_seconds += s;
      stats_.task_min_seconds = std::min(stats_.task_min_seconds, s);
      stats_.task_max_seconds = std::max(stats_.task_max_seconds, s);
    }
    stats_.task_mean_seconds =
        stats_.cpu_seconds / static_cast<double>(task_seconds_.size());
  }

  const DistributedPoolConfig& config_;
  const std::vector<run::JobSpec>& sweep_;
  run::SweepStats& stats_;
  const run::ProgressCallback& progress_;
  obs::Tracer* tracer_;

  AgentFleet fleet_;
  std::optional<run::TaskLedger> ledger_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<sim::SimResult> results_;
  std::vector<double> task_seconds_;
  Clock::time_point wall_start_{};
};

}  // namespace

DistributedPool::DistributedPool(DistributedPoolConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "DistributedPool: max_attempts must be >= 1");
  ESCHED_REQUIRE(config_.connect_attempts >= 1,
                 "DistributedPool: connect_attempts must be >= 1");
}

std::vector<HostPort> DistributedPool::agents_from_env() {
  const char* env = std::getenv("ESCHED_AGENTS");
  if (env == nullptr) return {};
  return parse_agent_list(env);
}

bool DistributedPool::any_agent_reachable(const std::vector<HostPort>& agents,
                                          double timeout_seconds) {
  return std::any_of(agents.begin(), agents.end(), [&](const HostPort& a) {
    return reachable(a, timeout_seconds);
  });
}

std::vector<sim::SimResult> DistributedPool::run(
    const std::vector<run::JobSpec>& sweep) {
  stats_ = run::SweepStats{};
  stats_.tasks = sweep.size();
  if (sweep.empty()) return {};
  ESCHED_REQUIRE(!config_.agents.empty(),
                 "DistributedPool: no agents configured (pass "
                 "DistributedPoolConfig::agents or set ESCHED_AGENTS)");

  // Identical-cell dedup, exactly as in SubprocessPool::run: only
  // representatives of each distinct cell_key cross the wire; duplicates
  // copy the representative's (bit-identical) result afterwards.
  const run::CellGroups groups = run::group_cells(
      sweep, run::SweepRunner::prefix_sharing_default());
  std::vector<run::JobSpec> uniques;
  uniques.reserve(groups.unique_indices.size());
  for (const std::size_t i : groups.unique_indices) {
    uniques.push_back(sweep[i]);
  }
  if (fleet_ != nullptr) {
    // Stamp each dispatched cell with a trace context so the remote
    // simulate span (flow id = parent_span_id) stitches under this
    // sweep's dispatch spans. Deliberately done on the uniques copy,
    // after dedup: trace ids are excluded from cell_key, and results
    // must not depend on whether telemetry is on.
    for (std::size_t k = 0; k < uniques.size(); ++k) {
      uniques[k].trace_id = 1;
      uniques[k].parent_span_id = static_cast<std::uint64_t>(k) + 1;
    }
  }

  run::ProgressCallback progress;
  if (progress_) {
    progress = [this,
                total = sweep.size()](const run::SweepProgress& inner) {
      run::SweepProgress p = inner;
      p.total = total;
      p.eta_seconds = p.done > 0 ? p.elapsed_seconds /
                                       static_cast<double>(p.done) *
                                       static_cast<double>(total - p.done)
                                 : 0.0;
      progress_(p);
    };
  }

  run::SigpipeGuard sigpipe;
  PoolRun pool_run(config_, uniques, stats_, progress, tracer_, fleet_);
  std::vector<sim::SimResult> unique_results;
  try {
    unique_results = pool_run.run();
  } catch (...) {
    // Any failure — budget exhaustion, deterministic kError, a throwing
    // progress callback — closes every connection before propagating; the
    // agents discard orphaned work on EOF.
    pool_run.disconnect_all();
    throw;
  }

  std::vector<sim::SimResult> results;
  results.reserve(sweep.size());
  std::size_t done = uniques.size();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    results.push_back(unique_results[groups.rep[i]]);
    if (groups.unique_indices[groups.rep[i]] == i) continue;
    if (progress_) {
      run::SweepProgress p;
      p.done = ++done;
      p.total = sweep.size();
      p.elapsed_seconds = stats_.wall_seconds;
      p.eta_seconds = 0.0;
      progress_(p);
    }
  }
  stats_.tasks = sweep.size();
  stats_.simulated_cells = uniques.size();
  stats_.copied_cells = sweep.size() - uniques.size();
  return results;
}

}  // namespace esched::net
