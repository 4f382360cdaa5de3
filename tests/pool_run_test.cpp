// Pins run::PoolRun, the one pool driver under the proc and tcp planes,
// against scripted fake lanes — no fork, no sockets: the wait rule
// (a backoff-gated cell bounds the poll only while a lane is idle), a
// transient failure requeued under its cell's budget and exhaustion
// naming the cell, a kError failing the sweep after one attempt, and the
// per-lane busy-time vector.
#include "run/pool_run.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "run/spec.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace {

using namespace esched;
using Clock = run::EndpointClock;
namespace wire = run::wire;

/// A trajectory of its own per policy, so every cell is its own task.
run::JobSpec cell(const char* policy) {
  run::JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  spec.pricing.model = "paper";
  spec.pricing.ratio = 3.0;
  spec.policy.name = policy;
  spec.label = policy;
  return spec;
}

run::RetryPolicy retry(std::uint32_t max_attempts, double backoff_seconds) {
  run::RetryPolicy p;
  p.max_attempts = max_attempts;
  p.backoff_initial_seconds = backoff_seconds;
  p.backoff_max_seconds = backoff_seconds;
  return p;
}

constexpr run::PoolNames kNames{"FakePool", "fake.task", nullptr, "task:",
                                "fake", 0};

enum class Answer { kResult, kTransient, kError };

/// Lanes of one slot each that hold every claimed attempt for
/// `hold_seconds`, then answer it as `script` says. The deadline is the
/// earliest held answer, like an attempt deadline.
class FakeLanes final : public run::Lanes {
 public:
  using Script = std::function<Answer(const run::Dispatch&)>;

  FakeLanes(std::size_t lanes, double hold_seconds, Script script)
      : held_(lanes), hold_seconds_(hold_seconds), script_(std::move(script)) {}

  void attach(run::LaneOwner& owner) { owner_ = &owner; }

  std::size_t ticks = 0;
  std::size_t attempts = 0;

  void tick(Clock::time_point now) override {
    ++ticks;
    for (std::size_t lane = 0; lane < held_.size(); ++lane) {
      if (held_[lane] && held_[lane]->answer_at <= now) answer(lane, now);
      if (held_[lane]) continue;
      run::Dispatch work;
      if (!owner_->claim(lane, now, work)) continue;
      ++attempts;
      Held held;
      held.ep.begin(work.task, work.attempt, now, 0.0);
      held.members = wire::decode_task(*work.payload).members.size();
      held.verdict = script_(work);
      held.answer_at = run::after(now, hold_seconds_);
      held_[lane] = held;
      if (hold_seconds_ <= 0.0) answer(lane, now);
    }
  }
  void register_fds(std::vector<struct pollfd>&) override {}
  void on_poll(const std::vector<struct pollfd>&) override {}
  Clock::time_point next_deadline() const override {
    Clock::time_point nearest = Clock::time_point::max();
    for (const std::optional<Held>& held : held_) {
      if (held) nearest = std::min(nearest, held->answer_at);
    }
    return nearest;
  }
  std::size_t idle_lanes() const override {
    return static_cast<std::size_t>(
        std::count(held_.begin(), held_.end(), std::nullopt));
  }
  std::size_t lane_count() const override { return held_.size(); }
  std::string unusable_reason(Clock::time_point) const override { return {}; }

 private:
  struct Held {
    run::Endpoint ep;
    std::size_t members = 0;
    Answer verdict = Answer::kResult;
    Clock::time_point answer_at{};
  };

  void answer(std::size_t lane, Clock::time_point now) {
    const Held held = *held_[lane];
    held_[lane].reset();
    switch (held.verdict) {
      case Answer::kResult: {
        std::vector<wire::Outcome> outcomes(held.members);
        for (wire::Outcome& outcome : outcomes) {
          outcome.result = wire::encode_result(sim::SimResult{});
        }
        ASSERT_TRUE(owner_->on_result(lane, held.ep,
                                      wire::encode_outcomes(outcomes), now));
        break;
      }
      case Answer::kTransient:
        owner_->on_transient(lane, held.ep, "worker lost", now);
        break;
      case Answer::kError:
        owner_->on_error(lane, held.ep, "ratio must be >= 1");
        break;
    }
  }

  std::vector<std::optional<Held>> held_;
  double hold_seconds_;
  Script script_;
  run::LaneOwner* owner_ = nullptr;
};

/// Run `sweep` through a PoolRun over `lanes`.
std::vector<sim::SimResult> run_pool(const std::vector<run::JobSpec>& sweep,
                                     const run::RetryPolicy& policy,
                                     FakeLanes& lanes, run::SweepStats& stats) {
  const run::ProgressCallback progress;
  run::PoolRun pool(sweep, policy, kNames, stats, progress, nullptr);
  lanes.attach(pool);
  return pool.run(lanes);
}

/// Lanes that only report a fixed state, for the wait rule alone.
class StateLanes final : public run::Lanes {
 public:
  StateLanes(std::size_t idle, Clock::time_point deadline)
      : idle_(idle), deadline_(deadline) {}
  void tick(Clock::time_point) override {}
  void register_fds(std::vector<struct pollfd>&) override {}
  void on_poll(const std::vector<struct pollfd>&) override {}
  Clock::time_point next_deadline() const override { return deadline_; }
  std::size_t idle_lanes() const override { return idle_; }
  std::size_t lane_count() const override { return 2; }
  std::string unusable_reason(Clock::time_point) const override { return {}; }

 private:
  std::size_t idle_;
  Clock::time_point deadline_;
};

TEST(PoolRunTest, BusyLanesWaitForTheirDeadlineNotTheQueuesReadyTime) {
  const Clock::time_point now = Clock::now();
  run::CellQueue queue(retry(3, 10.0), true);
  const run::JobSpec spec = cell("fcfs");
  queue.add(run::cell_key(spec), spec, {"", 0}, now);
  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  ASSERT_TRUE(queue.fail_attempt(work.task, "worker lost", now).empty());
  const Clock::time_point ready = queue.next_ready();
  ASSERT_EQ(ready, run::after(now, 10.0));  // backoff-gated

  const Clock::time_point lanes_deadline = run::after(now, 60.0);
  EXPECT_EQ(run::wake_time(StateLanes(0, lanes_deadline), queue),
            lanes_deadline);
  EXPECT_EQ(run::wake_time(StateLanes(1, lanes_deadline), queue), ready);
  EXPECT_EQ(run::wake_time(StateLanes(1, run::after(now, 5.0)), queue),
            run::after(now, 5.0));
}

TEST(PoolRunTest, LoopSleepsWhileEveryLaneIsBusy) {
  // One lane. "fcfs" fails transiently after 0.2 s and is gated for
  // 10 ms; "greedy" then holds the lane for 0.2 s more. Waking at the
  // gate would spin until greedy answers; the driver must sleep instead.
  FakeLanes lanes(1, 0.2, [](const run::Dispatch& work) {
    return work.task == 0 && work.attempt == 0 ? Answer::kTransient
                                               : Answer::kResult;
  });
  run::SweepStats stats;
  const std::vector<sim::SimResult> results =
      run_pool({cell("fcfs"), cell("greedy")}, retry(2, 0.01), lanes, stats);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(lanes.attempts, 3u);
  EXPECT_LT(lanes.ticks, 20u);
}

TEST(PoolRunTest, TransientFailureIsRetriedUnderTheCellsBudget) {
  FakeLanes lanes(2, 0.0, [](const run::Dispatch& work) {
    return work.attempt < 2 ? Answer::kTransient : Answer::kResult;
  });
  run::SweepStats stats;
  const std::vector<sim::SimResult> results =
      run_pool({cell("fcfs"), cell("greedy")}, retry(3, 0.0), lanes, stats);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(lanes.attempts, 6u);
  EXPECT_EQ(stats.simulated_cells, 2u);
}

TEST(PoolRunTest, ExhaustedBudgetNamesTheCellAndEveryAttempt) {
  FakeLanes lanes(1, 0.0,
                  [](const run::Dispatch&) { return Answer::kTransient; });
  run::SweepStats stats;
  try {
    run_pool({cell("fcfs")}, retry(2, 0.0), lanes, stats);
    FAIL() << "an exhausted budget must throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "sweep cell \"fcfs\" failed after 2 attempt(s): "
              "[attempt 1: worker lost]; [attempt 2: worker lost]");
  }
  EXPECT_EQ(lanes.attempts, 2u);
}

TEST(PoolRunTest, ErrorFailsTheSweepWithoutRetry) {
  FakeLanes lanes(1, 0.0, [](const run::Dispatch&) { return Answer::kError; });
  run::SweepStats stats;
  try {
    run_pool({cell("fcfs"), cell("greedy")}, retry(5, 0.0), lanes, stats);
    FAIL() << "a kError must throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "sweep cell \"fcfs\" failed: ratio must be >= 1");
  }
  EXPECT_EQ(lanes.attempts, 1u);
}

TEST(PoolRunTest, BusySecondsHaveOneEntryPerLane) {
  FakeLanes lanes(3, 0.0, [](const run::Dispatch&) { return Answer::kResult; });
  run::SweepStats stats;
  const std::vector<sim::SimResult> results =
      run_pool({cell("fcfs"), cell("greedy")}, retry(1, 0.0), lanes, stats);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(stats.worker_busy_seconds.size(), 3u);
  EXPECT_EQ(stats.simulated_cells, 2u);
  EXPECT_EQ(stats.tasks, 2u);
}

}  // namespace
