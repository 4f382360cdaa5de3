// Pins run::CellQueue, the one cell scheduler under the proc, tcp and
// coordinator planes: duplicate and straggler answers are dropped, never
// double-counted; a claim groups ready share-key siblings up to the task
// cap and skips backoff-gated ones; a requeued group keeps its task id;
// a duplicate cell settles with its first copy; and a member's failure —
// an error outcome or a spent budget — fails that member alone.
#include "run/cell_queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "run/spec.hpp"
#include "run/wire.hpp"

namespace {

using namespace esched;
using Clock = run::EndpointClock;
namespace wire = run::wire;

/// A price variant of one trajectory: equal share_key, distinct cell_key
/// per ratio.
run::JobSpec cell(double ratio, const char* policy = "fcfs") {
  run::JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  spec.pricing.model = "paper";
  spec.pricing.ratio = ratio;
  spec.policy.name = policy;
  spec.label = std::string(policy) + "/r" + std::to_string(ratio);
  return spec;
}

run::RetryPolicy policy(std::uint32_t max_attempts = 3,
                        double backoff_seconds = 0.0) {
  run::RetryPolicy p;
  p.max_attempts = max_attempts;
  p.backoff_initial_seconds = backoff_seconds;
  p.backoff_max_seconds = backoff_seconds;
  return p;
}

/// Queue `spec` for sweep "" at grid index `index`.
bool add(run::CellQueue& queue, const run::JobSpec& spec, std::size_t index,
         Clock::time_point now) {
  return queue.add(run::cell_key(spec), spec, {"", index}, now);
}

constexpr std::size_t kNoMember = static_cast<std::size_t>(-1);

/// A kResult payload answering a task of `members` members, every one
/// with a result unless `failed` names its position.
std::vector<std::uint8_t> reply(std::size_t members,
                                std::size_t failed = kNoMember) {
  std::vector<wire::Outcome> outcomes(members);
  for (std::size_t k = 0; k < members; ++k) {
    if (k == failed) {
      outcomes[k].ok = false;
      outcomes[k].error = "ratio must be >= 1";
    } else {
      outcomes[k].result = {static_cast<std::uint8_t>(k)};
    }
  }
  return wire::encode_outcomes(outcomes);
}

TEST(CellQueueTest, CompleteSettlesATaskOnlyOnce) {
  run::CellQueue queue(policy(), true);
  const Clock::time_point now = Clock::now();
  add(queue, cell(3.0, "fcfs"), 0, now);
  add(queue, cell(3.0, "greedy"), 1, now);

  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  std::vector<run::SettledCell> settled;
  EXPECT_TRUE(queue.complete(work.task, reply(1), settled));
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_TRUE(settled[0].ok());

  // The duplicate delivery: a second answer for the same task (a
  // straggler frame) must be a no-op.
  EXPECT_FALSE(queue.complete(work.task, reply(1), settled));
  EXPECT_FALSE(queue.complete(work.task, reply(1), settled));
  EXPECT_FALSE(queue.empty());  // the other cell is still queued
  EXPECT_EQ(queue.queued_cells(), 1u);
}

TEST(CellQueueTest, StragglerAnswerAfterRequeueIsDropped) {
  // The race the distributed transports hit: attempt 0 times out and is
  // requeued; attempt 1 completes; then attempt 0's answer finally
  // arrives. The late answer must not settle anything twice.
  run::CellQueue queue(policy(), true);
  Clock::time_point now = Clock::now();
  add(queue, cell(3.0), 0, now);

  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 0u);
  EXPECT_EQ(work.attempt, 0u);
  EXPECT_TRUE(queue.fail_attempt(work.task, "timed out", now).empty());

  now += std::chrono::seconds(1);
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 0u);
  EXPECT_EQ(work.attempt, 1u);
  std::vector<run::SettledCell> settled;
  EXPECT_TRUE(queue.complete(work.task, reply(1), settled));
  EXPECT_TRUE(queue.empty());

  // Attempt 0's straggler answer.
  EXPECT_FALSE(queue.complete(work.task, reply(1), settled));
  EXPECT_TRUE(queue.empty());
}

TEST(CellQueueTest, AnswerBeforeAnyDispatchIsDropped) {
  // An answer naming a task no claim handed out — say, from a previous
  // incarnation's dispatch — settles nothing; the cells it might name
  // are still claimed, completed and settled exactly once each.
  run::CellQueue queue(policy(), false);
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < 3; ++i) {
    add(queue, cell(2.0 + static_cast<double>(i)), i, now);
  }

  std::vector<run::SettledCell> settled;
  EXPECT_FALSE(queue.complete(1, reply(1), settled));
  EXPECT_TRUE(queue.fail_attempt(1, "agent died", now).empty());
  EXPECT_EQ(queue.queued_cells(), 3u);

  std::size_t claimed = 0;
  std::size_t produced = 0;
  run::Dispatch work;
  while (queue.claim(now, work)) {
    EXPECT_EQ(work.task, claimed);  // sharing off: one task per cell
    ++claimed;
    ASSERT_TRUE(queue.complete(work.task, reply(1), settled));
    produced += settled.size();
  }
  EXPECT_EQ(claimed, 3u);
  EXPECT_EQ(produced, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(CellQueueTest, BudgetExhaustionAfterDuplicateAnswers) {
  // Duplicate answers for one task must not touch another cell's
  // attempt budget.
  run::CellQueue queue(policy(2), false);
  Clock::time_point now = Clock::now();
  add(queue, cell(3.0), 0, now);
  add(queue, cell(4.0), 1, now);

  run::Dispatch first;
  ASSERT_TRUE(queue.claim(now, first));
  std::vector<run::SettledCell> settled;
  EXPECT_TRUE(queue.complete(first.task, reply(1), settled));
  EXPECT_FALSE(queue.complete(first.task, reply(1), settled));

  run::Dispatch second;
  ASSERT_TRUE(queue.claim(now, second));
  EXPECT_TRUE(queue.fail_attempt(second.task, "agent died", now).empty());
  now += std::chrono::seconds(1);
  ASSERT_TRUE(queue.claim(now, second));
  const std::vector<run::SettledCell> exhausted =
      queue.fail_attempt(second.task, "agent died again", now);
  ASSERT_EQ(exhausted.size(), 1u);
  EXPECT_EQ(exhausted[0].error,
            "sweep cell \"" + cell(4.0).label +
                "\" failed after 2 attempt(s): [attempt 1: agent died]; "
                "[attempt 2: agent died again]");
  ASSERT_EQ(exhausted[0].waiters.size(), 1u);
  EXPECT_EQ(exhausted[0].waiters[0].index, 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(CellQueueTest, ClaimTakesReadySiblingsUpToTheCapAndSkipsGatedOnes) {
  run::CellQueue queue(policy(3, 1.0), true);
  Clock::time_point now = Clock::now();
  // Six price variants of one trajectory, then another trajectory.
  for (std::size_t i = 0; i < 6; ++i) {
    add(queue, cell(2.0 + static_cast<double>(i)), i, now);
  }
  add(queue, cell(3.0, "greedy"), 6, now);

  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));  // the first four variants
  EXPECT_EQ(work.task, 0u);
  EXPECT_EQ(queue.task_size(0), wire::kMaxTaskMembers);

  ASSERT_TRUE(queue.fail_attempt(0, "agent died", now).empty());

  // The four are gated for a second; the other two variants lead task 1
  // without them, the greedy cell task 2.
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 1u);
  EXPECT_EQ(queue.task_size(1), 2u);

  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 2u);
  EXPECT_EQ(queue.task_size(2), 1u);
  EXPECT_FALSE(queue.claim(now, work));
  EXPECT_EQ(queue.next_ready(), now + std::chrono::seconds(1));

  // A new variant joins no gated sibling; once the gate opens the
  // variants regroup under task 0.
  add(queue, cell(9.0), 7, now);
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 3u);
  EXPECT_EQ(queue.task_size(3), 1u);
  now += std::chrono::seconds(1);
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 0u);
  EXPECT_EQ(work.attempt, 1u);
  EXPECT_EQ(queue.task_size(0), wire::kMaxTaskMembers);
  EXPECT_EQ(queue.queued_cells(), 0u);
  EXPECT_EQ(queue.in_flight_cells(), 8u);
}

TEST(CellQueueTest, RequeuedGroupKeepsItsTaskId) {
  // Ids go out in claim order and stay with their leader, so a fault
  // plan keyed on (task, attempt) sees a retried group as the next
  // attempt of the same task.
  run::CellQueue queue(policy(4), true);
  const Clock::time_point now = Clock::now();
  add(queue, cell(2.0), 0, now);
  add(queue, cell(3.0), 1, now);
  add(queue, cell(2.0, "greedy"), 2, now);

  run::Dispatch a;
  run::Dispatch b;
  ASSERT_TRUE(queue.claim(now, a));
  ASSERT_TRUE(queue.claim(now, b));
  EXPECT_EQ(a.task, 0u);
  EXPECT_EQ(b.task, 1u);
  EXPECT_EQ(queue.task_size(a.task), 2u);
  for (std::uint32_t attempt = 1; attempt <= 2; ++attempt) {
    ASSERT_TRUE(queue.fail_attempt(a.task, "netdrop", now).empty());
    ASSERT_TRUE(queue.claim(now, a));
    EXPECT_EQ(a.task, 0u);
    EXPECT_EQ(a.attempt, attempt);
    EXPECT_EQ(queue.task_size(a.task), 2u);
  }
  // The payload carries the whole group, leader first.
  const std::vector<run::JobSpec> members = wire::decode_task(*a.payload);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].label, cell(2.0).label);
  EXPECT_EQ(members[1].label, cell(3.0).label);
}

TEST(CellQueueTest, StampedTasksCarryTheirIdAsParentSpan) {
  run::CellQueue queue(policy(), true, /*stamp_trace=*/true);
  const Clock::time_point now = Clock::now();
  add(queue, cell(2.0), 0, now);
  add(queue, cell(2.0, "greedy"), 1, now);
  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  ASSERT_TRUE(queue.claim(now, work));
  const std::vector<run::JobSpec> members = wire::decode_task(*work.payload);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].trace_id, 1u);
  EXPECT_EQ(members[0].parent_span_id, 2u);  // task 1
}

TEST(CellQueueTest, DuplicateCellKeySettlesWithItsFirstCopy) {
  run::CellQueue queue(policy(), true);
  const Clock::time_point now = Clock::now();
  EXPECT_TRUE(queue.add(run::cell_key(cell(3.0)), cell(3.0), {"a", 4}, now));
  run::JobSpec relabelled = cell(3.0);
  relabelled.label = "same cell";
  EXPECT_FALSE(queue.add(run::cell_key(relabelled), relabelled, {"b", 0}, now));
  EXPECT_EQ(queue.queued_cells(), 1u);

  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(queue.task_size(work.task), 1u);
  // A copy arriving while the cell is in flight waits on it too.
  EXPECT_FALSE(queue.add(run::cell_key(cell(3.0)), cell(3.0), {"c", 2}, now));
  EXPECT_FALSE(queue.claim(now, work));

  // A sweep that gave up no longer waits.
  queue.forget("b");
  std::vector<run::SettledCell> settled;
  ASSERT_TRUE(queue.complete(work.task, reply(1), settled));
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_EQ(settled[0].label, cell(3.0).label);
  ASSERT_EQ(settled[0].waiters.size(), 2u);
  EXPECT_EQ(settled[0].waiters[0].sweep, "a");
  EXPECT_EQ(settled[0].waiters[0].index, 4u);
  EXPECT_EQ(settled[0].waiters[1].sweep, "c");
  EXPECT_EQ(settled[0].result, std::vector<std::uint8_t>{0});
  EXPECT_TRUE(queue.empty());
}

TEST(CellQueueTest, ExhaustedMemberFailsAlone) {
  // A cell that failed once alone rides its next attempt with a fresh
  // sibling; when that attempt fails too, only the cell whose budget is
  // spent fails — the sibling is requeued and leads a task of its own.
  run::CellQueue queue(policy(2), true);
  const Clock::time_point now = Clock::now();
  add(queue, cell(2.0), 0, now);
  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  ASSERT_TRUE(queue.fail_attempt(work.task, "crashed", now).empty());

  add(queue, cell(3.0), 1, now);
  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 0u);
  EXPECT_EQ(queue.task_size(work.task), 2u);
  const std::vector<run::SettledCell> exhausted =
      queue.fail_attempt(work.task, "crashed again", now);
  ASSERT_EQ(exhausted.size(), 1u);
  EXPECT_EQ(exhausted[0].label, cell(2.0).label);
  EXPECT_NE(exhausted[0].error.find("failed after 2 attempt(s)"),
            std::string::npos);

  ASSERT_TRUE(queue.claim(now, work));
  EXPECT_EQ(work.task, 1u);
  EXPECT_EQ(work.attempt, 1u);
  std::vector<run::SettledCell> settled;
  ASSERT_TRUE(queue.complete(work.task, reply(1), settled));
  EXPECT_TRUE(settled[0].ok());
  EXPECT_TRUE(queue.empty());
}

TEST(CellQueueTest, MemberErrorOutcomeFailsOnlyThatMember) {
  run::CellQueue queue(policy(), true);
  const Clock::time_point now = Clock::now();
  add(queue, cell(2.0), 0, now);
  run::JobSpec bad = cell(3.0);
  bad.label = "bad";
  add(queue, bad, 1, now);
  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  ASSERT_EQ(queue.task_size(work.task), 2u);

  std::vector<run::SettledCell> settled;
  EXPECT_FALSE(queue.complete(work.task, reply(3), settled));  // wrong count
  ASSERT_TRUE(queue.complete(work.task, reply(2, 1), settled));
  ASSERT_EQ(settled.size(), 2u);
  EXPECT_TRUE(settled[0].ok());
  EXPECT_FALSE(settled[1].ok());
  EXPECT_EQ(settled[1].error, "member \"bad\" of sweep cell \"" +
                                  cell(2.0).label +
                                  "\" failed: ratio must be >= 1");
  EXPECT_TRUE(queue.empty());
}

TEST(CellQueueTest, FailAllSettlesEveryOpenCell) {
  run::CellQueue queue(policy(), true);
  const Clock::time_point now = Clock::now();
  add(queue, cell(2.0), 0, now);
  add(queue, cell(2.0, "greedy"), 1, now);
  run::Dispatch work;
  ASSERT_TRUE(queue.claim(now, work));
  const std::vector<run::SettledCell> failed =
      queue.fail_all("no usable agents remain (a: rejected)");
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].error, "no usable agents remain (a: rejected)");
  EXPECT_TRUE(queue.empty());
  std::vector<run::SettledCell> settled;
  EXPECT_FALSE(queue.complete(work.task, reply(1), settled));
}

}  // namespace
