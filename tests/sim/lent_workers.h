// Lends a test's own runner::ThreadPool to sim::ParallelSimulation as its
// worker donor, counting the jobs the kernel hands over, and clears the
// donor when the scope ends.  Declare the pools before the LentWorkers so
// the donor is gone before any lent pool is destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

#include "runner/thread_pool.h"
#include "sim/pdes.h"

namespace bolot::sim {

class LentWorkers {
 public:
  /// Lends `pool`; nullptr installs no donor, so run_until drives every
  /// domain on the calling thread.
  explicit LentWorkers(runner::ThreadPool* pool = nullptr) { lend(pool); }
  ~LentWorkers() { ParallelSimulation::set_thread_donor({}); }

  LentWorkers(const LentWorkers&) = delete;
  LentWorkers& operator=(const LentWorkers&) = delete;

  /// Replaces the lent pool (nullptr: none) for the runs that follow.
  void lend(runner::ThreadPool* pool) {
    if (pool == nullptr) {
      ParallelSimulation::set_thread_donor({});
      return;
    }
    ParallelSimulation::set_thread_donor(
        [this, pool](std::function<void()> job) {
          jobs_.fetch_add(1, std::memory_order_relaxed);
          pool->submit(std::move(job));
        });
  }

  /// Jobs handed to a lent pool so far.
  std::size_t jobs() const { return jobs_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> jobs_{0};
};

}  // namespace bolot::sim
