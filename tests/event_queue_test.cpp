// Tests for the event queue's deterministic ordering, including the
// differential contract between the two backends: for ANY push/pop
// interleaving, the calendar queue's pop sequence must be identical to
// the reference binary heap's.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/policy.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "run/sweep.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace esched::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  q.push(300, EventType::kTick);
  q.push(100, EventType::kTick);
  q.push(200, EventType::kTick);
  EXPECT_EQ(q.pop().time, 100);
  EXPECT_EQ(q.pop().time, 200);
  EXPECT_EQ(q.pop().time, 300);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameTimeOrdersFinishSubmitTick) {
  EventQueue q;
  q.push(100, EventType::kTick);
  q.push(100, EventType::kJobSubmit, 2);
  q.push(100, EventType::kJobFinish, 1);
  EXPECT_EQ(q.pop().type, EventType::kJobFinish);
  EXPECT_EQ(q.pop().type, EventType::kJobSubmit);
  EXPECT_EQ(q.pop().type, EventType::kTick);
}

TEST(EventQueueTest, SameTimeSameTypeIsFifo) {
  EventQueue q;
  q.push(100, EventType::kJobSubmit, 11);
  q.push(100, EventType::kJobSubmit, 22);
  q.push(100, EventType::kJobSubmit, 33);
  EXPECT_EQ(q.pop().payload, 11u);
  EXPECT_EQ(q.pop().payload, 22u);
  EXPECT_EQ(q.pop().payload, 33u);
}

TEST(EventQueueTest, PayloadRoundTrips) {
  EventQueue q;
  q.push(5, EventType::kJobFinish, 12345);
  const Event e = q.pop();
  EXPECT_EQ(e.time, 5);
  EXPECT_EQ(e.payload, 12345u);
}

TEST(EventQueueTest, TopDoesNotRemove) {
  EventQueue q;
  q.push(5, EventType::kTick);
  EXPECT_EQ(q.top().time, 5);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EmptyAccessThrows) {
  EventQueue q;
  EXPECT_THROW(q.top(), Error);
  EXPECT_THROW(q.pop(), Error);
}

// ---- per-backend contract (explicit backends) ----

class EventQueueBackendTest
    : public ::testing::TestWithParam<EventQueue::Backend> {};

TEST_P(EventQueueBackendTest, OrderingContractHolds) {
  EventQueue q(GetParam());
  EXPECT_EQ(q.backend(), GetParam());
  q.push(300, EventType::kTick);
  q.push(100, EventType::kTick);
  q.push(100, EventType::kJobSubmit, 2);
  q.push(100, EventType::kJobFinish, 1);
  q.push(200, EventType::kJobSubmit, 7);
  EXPECT_EQ(q.pop().type, EventType::kJobFinish);
  EXPECT_EQ(q.pop().type, EventType::kJobSubmit);
  EXPECT_EQ(q.pop().type, EventType::kTick);
  EXPECT_EQ(q.pop().payload, 7u);
  EXPECT_EQ(q.pop().time, 300);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueBackendTest, PushEarlierThanEverythingPopped) {
  // The simulator never pushes into the past, but the raw container must
  // still order correctly (the calendar rebases its window).
  EventQueue q(GetParam());
  q.configure(1000, 10000, 64);
  q.push(5000, EventType::kTick);
  q.push(9000, EventType::kTick);
  EXPECT_EQ(q.pop().time, 5000);
  q.push(1000, EventType::kTick);  // before the remaining minimum
  EXPECT_EQ(q.pop().time, 1000);
  EXPECT_EQ(q.pop().time, 9000);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventQueueBackendTest,
                         ::testing::Values(EventQueue::Backend::kCalendar,
                                           EventQueue::Backend::kHeap),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          EventQueue::Backend::kCalendar
                                      ? "calendar"
                                      : "heap";
                         });

// ---- differential: calendar vs heap over random interleavings ----

class EventQueueDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, RandomInterleavingsMatchHeap) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    EventQueue cal(EventQueue::Backend::kCalendar);
    EventQueue heap(EventQueue::Backend::kHeap);
    if (round % 2 == 0) {
      // Half the rounds exercise a configured calendar (the simulator
      // path); the width/window must not change the pop sequence.
      const TimeSec start = rng.uniform_int(0, 1000);
      const DurationSec span = rng.uniform_int(1, 20000);
      cal.configure(start, span,
                    static_cast<std::size_t>(rng.uniform_int(1, 512)));
      heap.configure(start, span, 64);  // no-op, but must be accepted
    }
    const int ops = static_cast<int>(rng.uniform_int(50, 400));
    std::size_t payload = 0;
    for (int op = 0; op < ops; ++op) {
      // Push-biased mix; times are unconstrained (including pushes far
      // beyond the configured span and before the window start).
      if (cal.empty() || rng.uniform_int(0, 2) != 0) {
        const TimeSec t = rng.uniform_int(0, 50000);
        const auto type = static_cast<EventType>(rng.uniform_int(0, 2));
        cal.push(t, type, payload);
        heap.push(t, type, payload);
        ++payload;
      } else {
        ASSERT_EQ(cal.top().time, heap.top().time);
        const Event a = cal.pop();
        const Event b = heap.pop();
        ASSERT_EQ(a.time, b.time);
        ASSERT_EQ(a.type, b.type);
        ASSERT_EQ(a.payload, b.payload);
        ASSERT_EQ(a.seq, b.seq);
      }
      ASSERT_EQ(cal.size(), heap.size());
    }
    while (!heap.empty()) {
      const Event a = cal.pop();
      const Event b = heap.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.type, b.type);
      ASSERT_EQ(a.payload, b.payload);
      ASSERT_EQ(a.seq, b.seq);
    }
    ASSERT_TRUE(cal.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- differential: whole simulations, heap vs calendar backend ----

/// Run one full simulation with the queue backend forced via
/// ESCHED_EVENTQ (the simulator constructs its queue through the env
/// default, exactly like production).
SimResult simulate_with_backend(const char* backend,
                                const trace::Trace& trace,
                                const power::PricingModel& pricing,
                                const std::string& policy_name) {
  if (backend != nullptr) {
    ::setenv("ESCHED_EVENTQ", backend, 1);
  } else {
    ::unsetenv("ESCHED_EVENTQ");
  }
  const auto policy = core::make_policy_by_name(policy_name);
  SimResult result = simulate(trace, pricing, *policy);
  ::unsetenv("ESCHED_EVENTQ");
  return result;
}

TEST(EventQueueSimDifferentialTest, FullSimulationsMatchHeapBackend) {
  // A real month-long bench workload (the seed benches' generator), all
  // three policies, on/off-peak pricing: the heap backend is the seed
  // simulator's queue, so this pins the calendar swap end to end.
  trace::Trace trace = trace::make_anl_bgp_like(1, 99);
  power::assign_profiles(trace, power::ProfileConfig{}, 99);
  const power::OnOffPeakPricing pricing(0.03, 3.0);
  for (const char* policy : {"fcfs", "greedy", "knapsack"}) {
    const SimResult heap =
        simulate_with_backend("heap", trace, pricing, policy);
    const SimResult calendar =
        simulate_with_backend(nullptr, trace, pricing, policy);
    EXPECT_TRUE(run::results_identical(heap, calendar))
        << "policy " << policy
        << ": calendar backend diverged from the heap reference";
  }
}

}  // namespace
}  // namespace esched::sim
