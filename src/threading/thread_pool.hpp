// Persistent fork-join thread pool.
//
// The GEMM driver executes its parallel region on all pool threads at once
// (the calling thread participates as rank 0), matching the paper's model
// of one thread per core cooperating on a single GEMM. Workers persist
// across calls so repeated GEMMs do not pay thread creation cost.
//
// Fork-join edges and the Barrier are hybrid spin-then-block: waiters spin
// for a bounded window (ARMGEMM_SPIN_US, see threading/spin.hpp) before
// parking on a condition variable, so back-to-back GEMM calls and per-panel
// syncs stay syscall-free while long idle periods still release the core.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ag {

class ThreadPool {
 public:
  /// Creates a pool executing regions on `num_threads` ranks total
  /// (num_threads - 1 workers plus the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(rank) for rank in [0, num_threads) concurrently; returns when
  /// every rank has finished. The first exception thrown by any rank is
  /// rethrown on the caller. Not reentrant.
  void run(const std::function<void(int)>& fn) { run(fn, num_threads_); }

  /// As run(fn), but only ranks in [0, active) execute fn; the remaining
  /// workers stay idle for this region. The GEMM driver clamps `active` to
  /// the available block count so surplus ranks never pay barrier traffic.
  /// active == 1 runs fn(0) inline without waking any worker.
  void run(const std::function<void(int)>& fn, int active);

 private:
  void worker_loop(int rank);

  int num_threads_;
  std::vector<std::thread> workers_;

  // Region hand-off: generation_ publishes task_/active_ (written under
  // mutex_, read by workers after an acquire load of generation_);
  // pending_ counts workers that have not finished the current region.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  int active_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> pending_{0};
  std::atomic<bool> shutdown_{false};
  std::exception_ptr first_error_;  // guarded by mutex_
};

/// Reusable barrier for ranks cooperating inside a pool region (e.g. "wait
/// until the shared B panel is fully packed", Figure 9). Hybrid: arrivals
/// spin with exponential cpu_relax backoff for the ARMGEMM_SPIN_US window,
/// then block on a condition variable.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}

  void arrive_and_wait();

 private:
  int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Contiguous 1-D range partitioning, chunk-aligned.
///
/// Splits [0, total) into `parts` contiguous ranges whose lengths are
/// multiples of `align` (except possibly the last), as cooperative packing
/// requires each thread's share of the B slivers to be contiguous.
struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
};

Range partition_range(std::int64_t total, int parts, int part, std::int64_t align);

}  // namespace ag
