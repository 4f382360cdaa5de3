#include "net/distributed.hpp"

#include <string>
#include <utility>
#include <vector>

#include "run/endpoint.hpp"
#include "run/pool_run.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace {

constexpr run::PoolNames kNames{"DistributedPool", "net.task", nullptr,
                                "cell:", "net", AgentFleet::kTrackBase};

}  // namespace

DistributedPool::DistributedPool(DistributedPoolConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.retry.max_attempts >= 1,
                 "DistributedPool: max_attempts must be >= 1");
  ESCHED_REQUIRE(config_.connect_attempts >= 1,
                 "DistributedPool: connect_attempts must be >= 1");
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
  run::PoolRun pool(sweep, config_.retry, kNames, stats_, progress_,
                    tracer_);
  AgentFleet agents(config_, config_.connect_attempts, pool, tracer_, fleet_);
  // Close every connection, on success and on any failure alike — the
  // agents then discard orphaned work — and capture the fleet picture
  // (slot total, per-agent liveness) for last_stats().
  const auto close = [&] {
    const run::EndpointClock::time_point now = run::EndpointClock::now();
    stats_.threads = agents.peak_slots();
    stats_.agent_liveness = agents.liveness(now);
    agents.disconnect_all(now);
  };
  try {
    std::vector<sim::SimResult> results = pool.run(agents);
    close();
    return results;
  } catch (...) {
    close();
    throw;
  }
}

}  // namespace esched::net
