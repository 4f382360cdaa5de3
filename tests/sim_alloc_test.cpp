// Exact heap-allocation counts for the simulation loop. This binary
// replaces the global operator new with a counting one, so the counts are
// exact and free of host noise:
//  * a warm calendar EventQueue allocates nothing over push/pop cycles
//    that overflow and wrap its window;
//  * Simulation::finish() allocates a constant number of times (the
//    result, its curves, the meter's day vector) plus one per window pass
//    (the order vector SchedulingPolicy::prioritize returns), whatever
//    the trace length.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/policy.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// The nothrow forms of libstdc++ call these, so they are counted too.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace esched::sim {
namespace {

/// One phase of a steady event stream starting at `t0`: 64 events in
/// flight, each pop pushing one event a cycling delay later. The 5000 s
/// delay lies past the 1024 s window, so events overflow and the window
/// wraps many times. The queue is drained at the end.
void run_phase(EventQueue& q, TimeSec t0) {
  constexpr std::size_t kInFlight = 64;
  constexpr DurationSec kDelays[] = {1, 7, 30, 250, 1300, 5000};
  for (std::size_t i = 0; i < kInFlight; ++i) {
    q.push(t0 + static_cast<TimeSec>(3 * i), EventType::kJobSubmit, i);
  }
  TimeSec last = t0;
  for (std::size_t i = 0; i < 4000; ++i) {
    const Event e = q.pop();
    ASSERT_GE(e.time, last);
    last = e.time;
    q.push(e.time + kDelays[i % 6], EventType::kJobFinish, e.payload);
  }
  while (!q.empty()) q.pop();
  ASSERT_GT(last - t0, 50 * 1024);  // dozens of window revolutions
}

TEST(SimAllocTest, WarmEventQueueAllocatesNothing) {
  // 128 buckets of 8 s: a 1024 s window. Phases start a whole number of
  // revolutions apart, so the second and third see the same bucket
  // layout and the same peak sizes; the second warms what the third uses.
  EventQueue q(EventQueue::Backend::kCalendar);
  q.configure(0, 1024, 256);
  constexpr TimeSec kPhase = TimeSec{1} << 20;
  run_phase(q, 0);
  run_phase(q, kPhase);
  const std::uint64_t reallocs = q.reallocs();
  const std::uint64_t before = allocations();
  run_phase(q, 2 * kPhase);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(q.reallocs(), reallocs);
}

/// The first `n` jobs of one generated ANL-BGP-like trace.
trace::Trace first_jobs(std::size_t n) {
  trace::Trace full = trace::make_anl_bgp_like(9, 31);
  power::assign_profiles(full, power::ProfileConfig{}, 31);
  EXPECT_GE(full.size(), n);
  trace::Trace out(full.name(), full.system_nodes());
  for (std::size_t i = 0; i < n && i < full.size(); ++i) {
    out.add_job(full[i]);
  }
  return out;
}

/// Allocations made by Simulation::finish() beyond one per window pass.
std::uint64_t finish_allocations_beyond_passes(const trace::Trace& trace,
                                               const std::string& policy) {
  const power::OnOffPeakPricing pricing(0.03, 3.0);
  const auto p = core::make_policy_by_name(policy);
  Simulation sim(trace, pricing, *p);  // backfill on, EASY for fcfs
  const std::uint64_t before = allocations();
  const SimResult result = sim.finish();
  const std::uint64_t made = allocations() - before;
  const std::uint64_t window_passes =
      p->strict_order() ? 0 : result.scheduling_passes;
  EXPECT_GT(result.scheduling_passes, trace.size() / 4) << policy;
  EXPECT_GE(made, window_passes) << policy;
  return made - window_passes;
}

TEST(SimAllocTest, FinishAllocatesOncePerWindowPassPlusAConstant) {
  // The same bound for a trace eight times longer: nothing in the event
  // loop allocates per event, per bucket or per pass beyond the one
  // order vector. What is left is about 20 allocations for fcfs and
  // greedy (the result and its curves, and the geometric growth of the
  // meter's day vector and the queue's cursor bucket), plus, for the
  // knapsack, its DP workspace growing to each new largest problem
  // (25-35 more on these traces). One allocation per event or per pass
  // would put the 8k-job count in the tens of thousands.
  constexpr std::uint64_t kBound = 64;
  const trace::Trace small = first_jobs(1000);
  const trace::Trace large = first_jobs(8000);
  for (const char* policy : {"fcfs", "greedy", "knapsack"}) {
    EXPECT_LT(finish_allocations_beyond_passes(small, policy), kBound)
        << policy << ", 1k jobs";
    EXPECT_LT(finish_allocations_beyond_passes(large, policy), kBound)
        << policy << ", 8k jobs";
  }
}

}  // namespace
}  // namespace esched::sim
