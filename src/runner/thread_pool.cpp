#include "runner/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/audit.h"

namespace bolot::runner {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SIM_CHECK(!stopping_,
              "ThreadPool: submit() after shutdown began (%zu workers, "
              "%zu jobs still queued)",
              workers_.size(), queue_.size());
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // A throwing job must not unwind through the worker (std::terminate);
    // record the first failure for wait_idle() to surface and keep
    // serving the queue so sibling jobs still complete.
    std::exception_ptr error;
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !first_error_) first_error_ = std::move(error);
    --in_flight_;
    if (in_flight_ == 0) all_done_.notify_all();
  }
}

}  // namespace bolot::runner
