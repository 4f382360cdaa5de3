// Tests for the experiment runner's fixed thread pool.
#include "run/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace esched::run {
namespace {

TEST(ThreadPoolTest, RequiresAtLeastOneThread) {
  EXPECT_THROW(ThreadPool(0), Error);
}

TEST(ThreadPoolTest, RunsTasksSubmittedAfterStart) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  // Counted inside the task, so each increment happens before its future
  // becomes ready.
  std::atomic<int> ran{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i, &ran] {
      ++ran;
      return i * i;
    }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, PropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool(2);
  std::future<void> bad =
      pool.submit([]() -> void { throw std::runtime_error("task boom"); });
  std::future<int> good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not kill its worker: the pool stays usable.
  EXPECT_EQ(good.get(), 7);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, GracefulShutdownDrainsQueuedWork) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  // Head task blocks the single worker so the rest provably sit queued
  // when shutdown() is called.
  pool.submit([&counter] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++counter;
  });
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 21);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 0; }), Error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
  }  // ~ThreadPool == graceful shutdown
  EXPECT_EQ(counter.load(), 16);
}

}  // namespace
}  // namespace esched::run
