// Property test: the event-driven simulator must agree exactly with a
// naive second-by-second reference simulator that shares the Scheduler
// but nothing else. The reference walks wall-clock seconds one at a time
// (processing finishes, then submissions, then — on tick boundaries —
// scheduling passes, exactly the event queue's same-time ordering) and
// integrates the bill per second. Any divergence in start/finish times,
// energy, or bill exposes a bug in the event engine's tick
// materialisation, ordering, or billing boundary handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "core/scheduler.hpp"
#include "power/pricing.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace esched {
namespace {

struct NaiveResult {
  std::map<JobId, TimeSec> start;
  std::map<JobId, TimeSec> finish;
  double energy = 0.0;
  double bill = 0.0;
};

NaiveResult naive_simulate(const trace::Trace& trace,
                           const power::PricingModel& pricing,
                           core::SchedulingPolicy& policy,
                           DurationSec tick_interval) {
  core::Scheduler scheduler(policy, core::SchedulerConfig{});
  NaiveResult out;
  if (trace.empty()) return out;

  struct Waiting {
    core::PendingJob pending;
    DurationSec runtime;
  };
  struct Running {
    JobId id;
    NodeCount nodes;
    Watts watts_per_node;
    TimeSec est_end;
    TimeSec real_end;
  };
  std::vector<Waiting> queue;
  std::vector<Running> running;
  NodeCount free = trace.system_nodes();
  std::size_t next_submit = 0;
  const TimeSec t0 = trace.first_submit();

  for (TimeSec t = t0;; ++t) {
    // 1. Finishes.
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].real_end == t) {
        free += running[i].nodes;
        out.finish[running[i].id] = t;
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // 2. Submissions (trace is sorted by submit, ties by id).
    while (next_submit < trace.size() &&
           trace[next_submit].submit == t) {
      const trace::Job& j = trace[next_submit];
      queue.push_back({{j.id, j.submit, j.nodes, j.walltime,
                        j.power_per_node},
                       j.runtime});
      ++next_submit;
    }
    // 3. Scheduling at tick boundaries (run to quiescence).
    if (t % tick_interval == 0) {
      while (!queue.empty() && free > 0) {
        std::vector<core::PendingJob> pending;
        pending.reserve(queue.size());
        for (const Waiting& w : queue) pending.push_back(w.pending);
        std::vector<core::RunningJob> occupancy;
        occupancy.reserve(running.size());
        for (const Running& r : running)
          occupancy.push_back({r.nodes, r.est_end});
        const core::ScheduleContext ctx{
            t, free, trace.system_nodes(), pricing.period_at(t),
            0.0, pricing.next_price_change(t)};
        const auto starts = scheduler.decide(ctx, pending, occupancy);
        if (starts.empty()) break;
        std::vector<bool> started(queue.size(), false);
        for (const std::size_t qi : starts) {
          const Waiting& w = queue[qi];
          started[qi] = true;
          free -= w.pending.nodes;
          out.start[w.pending.id] = t;
          running.push_back({w.pending.id, w.pending.nodes,
                             w.pending.power_per_node,
                             t + w.pending.walltime, t + w.runtime});
        }
        std::vector<Waiting> remaining;
        for (std::size_t i = 0; i < queue.size(); ++i)
          if (!started[i]) remaining.push_back(queue[i]);
        queue = std::move(remaining);
      }
    }
    // 4. Metering over [t, t+1).
    double watts = 0.0;
    for (const Running& r : running)
      watts += r.watts_per_node * static_cast<double>(r.nodes);
    out.energy += watts;
    out.bill += joules_to_kwh(watts) * pricing.price_at(t);

    if (queue.empty() && running.empty() && next_submit == trace.size())
      break;
  }
  return out;
}

trace::Trace random_trace(Rng& rng) {
  trace::Trace t("ref", 16);
  const auto jobs = static_cast<std::size_t>(rng.uniform_int(5, 30));
  for (std::size_t i = 0; i < jobs; ++i) {
    trace::Job j;
    j.id = static_cast<JobId>(i + 1);
    j.submit = rng.uniform_int(0, 300);
    j.nodes = rng.uniform_int(1, 16);
    j.runtime = rng.uniform_int(1, 60);
    j.walltime = j.runtime + rng.uniform_int(0, 30);
    j.power_per_node = rng.uniform(20.0, 60.0);
    j.user = static_cast<int>(rng.uniform_int(0, 3));
    t.add_job(j);
  }
  return t;
}

class ReferenceSimProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReferenceSimProperty, EventEngineMatchesNaiveStepper) {
  Rng rng(GetParam());
  // Price boundaries every 120 s so runs of a few hundred seconds cross
  // several on/off flips.
  power::OnOffPeakPricing pricing(36.0, 3.0, /*on_peak_start=*/0,
                                  /*on_peak_end=*/120);
  for (int round = 0; round < 10; ++round) {
    const trace::Trace t = random_trace(rng);
    for (const DurationSec tick : {DurationSec{1}, DurationSec{7},
                                   DurationSec{10}}) {
      for (int which = 0; which < 3; ++which) {
        core::FcfsPolicy fcfs;
        core::GreedyPowerPolicy greedy;
        core::KnapsackPolicy knapsack;
        core::SchedulingPolicy& policy =
            which == 0 ? static_cast<core::SchedulingPolicy&>(fcfs)
            : which == 1 ? static_cast<core::SchedulingPolicy&>(greedy)
                         : static_cast<core::SchedulingPolicy&>(knapsack);

        sim::SimConfig cfg;
        cfg.tick_interval = tick;
        cfg.record_daily_curves = false;
        const sim::SimResult ev = sim::simulate(t, pricing, policy, cfg);
        const NaiveResult naive =
            naive_simulate(t, pricing, policy, tick);

        for (const sim::JobRecord& r : ev.records) {
          ASSERT_EQ(naive.start.at(r.id), r.start)
              << "policy=" << policy.name() << " tick=" << tick
              << " job=" << r.id;
          ASSERT_EQ(naive.finish.at(r.id), r.finish)
              << "policy=" << policy.name() << " tick=" << tick
              << " job=" << r.id;
        }
        EXPECT_NEAR(ev.total_energy, naive.energy, 1e-6);
        EXPECT_NEAR(ev.total_bill, naive.bill, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceSimProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace esched
