#include "run/thread_pool.hpp"

namespace esched::run {

namespace {
thread_local std::size_t t_worker_index = ThreadPool::npos;
}  // namespace

std::size_t ThreadPool::current_index() { return t_worker_index; }

ThreadPool::ThreadPool(std::size_t threads) {
  ESCHED_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      t_worker_index = i;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ESCHED_REQUIRE(accepting_, "submit() on a shut-down thread pool");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_ && workers_.empty()) return;
    accepting_ = false;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) return;  // shutdown and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task captures any exception into the future; a raw callable
    // that throws would terminate, so submit() always wraps.
    task();
  }
}

}  // namespace esched::run
