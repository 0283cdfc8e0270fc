// Fixed-size thread pool for the sweep runner.
//
// Deliberately work-stealing-free: workers pull jobs from one shared FIFO
// under a mutex.  Sweep jobs are seconds-long simulations, so queue
// contention is irrelevant, and the simple structure is easy to reason
// about under TSan/ASan.  Determinism of sweep results does not depend on
// the pool at all — each job's result depends only on its own spec — so
// any scheduling order is acceptable.
//
// run_sweep builds one pool per sweep.  A sharded simulation gets worker
// threads only from a pool its caller lends explicitly through
// sim::ParallelSimulation::set_thread_donor.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bolot::runner {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job.  Calling this after the destructor has begun is a
  /// checked error (SIM_CHECK), not silent undefined behavior.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished running.  If any job
  /// exited by exception since the last wait_idle(), rethrows the first
  /// such exception (the remaining jobs still ran to completion — a
  /// throwing job never takes down its worker thread or the process).
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently running jobs
  bool stopping_ = false;
  /// First exception thrown by a job since the last wait_idle(); guarded
  /// by mutex_.  Before this existed, a throwing job unwound through
  /// worker_loop and took the whole process down via std::terminate.
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace bolot::runner
