#include "threading/thread_pool.hpp"

#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/telemetry.hpp"
#include "threading/spin.hpp"

namespace ag {

namespace {

/// Names the calling thread so tracer timelines, `perf`, gdb and
/// /proc/<pid>/task line up with the pool's rank numbering. Best-effort:
/// the 15-character kernel limit and non-Linux hosts are ignored.
void name_current_thread(int rank) {
#if defined(__linux__)
  char name[16];
  std::snprintf(name, sizeof(name), "armgemm-w%d", rank);
  pthread_setname_np(pthread_self(), name);
#else
  (void)rank;
#endif
}

}  // namespace

void Barrier::arrive_and_wait() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arrival releases the generation. arrived_ is reset before the
    // generation store publishes it, so next-generation arrivals (which
    // only start after observing the new generation) see a clean count.
    arrived_.store(0, std::memory_order_relaxed);
    {
      // The empty-looking critical section orders the store against
      // cv_.wait's predicate check, preventing a lost wakeup.
      std::lock_guard lock(mutex_);
      generation_.store(gen + 1, std::memory_order_release);
    }
    cv_.notify_all();
  } else {
    SpinWait spinner;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (!spinner.spin()) {
        std::unique_lock lock(mutex_);
        cv_.wait(lock,
                 [&] { return generation_.load(std::memory_order_acquire) != gen; });
        break;
      }
    }
  }
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  AG_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 thread, got " << num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int rank = 1; rank < num_threads; ++rank)
    workers_.emplace_back([this, rank] { worker_loop(rank); });
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(mutex_);
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(const std::function<void(int)>& fn, int active) {
  AG_CHECK_MSG(active >= 1 && active <= num_threads_,
               "active ranks " << active << " outside [1, " << num_threads_ << "]");
  if (num_threads_ == 1 || active == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    task_ = &fn;
    active_ = active;
    first_error_ = nullptr;
    // Every worker checks in once per generation even when it is not an
    // active rank, so the join below synchronizes with all of them and
    // the next region may safely rewrite task_/active_.
    pending_.store(num_threads_ - 1, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();

  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  SpinWait spinner;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (!spinner.spin()) {
      std::unique_lock lock(mutex_);
      done_cv_.wait(lock, [&] { return pending_.load(std::memory_order_acquire) == 0; });
      break;
    }
  }
  {
    std::lock_guard lock(mutex_);
    task_ = nullptr;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  std::exception_ptr worker_error;
  {
    std::lock_guard lock(mutex_);
    worker_error = first_error_;
  }
  if (worker_error) std::rethrow_exception(worker_error);
}

void ThreadPool::worker_loop(int rank) {
  name_current_thread(rank);
  // Pre-create this worker's telemetry lane (named to match the pthread
  // name) so the first recorded call never takes the registry lock.
  obs::telemetry_register_thread("armgemm-w" + std::to_string(rank));
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (gen == seen) {
      SpinWait spinner;
      while ((gen = generation_.load(std::memory_order_acquire)) == seen) {
        if (!spinner.spin()) {
          std::unique_lock lock(mutex_);
          start_cv_.wait(
              lock, [&] { return generation_.load(std::memory_order_acquire) != seen; });
          gen = generation_.load(std::memory_order_acquire);
          break;
        }
      }
    }
    seen = gen;
    if (shutdown_.load(std::memory_order_acquire)) return;
    // task_/active_ were written before the generation bump we acquired.
    const std::function<void(int)>* task = task_;
    const int active = active_;
    std::exception_ptr error;
    if (rank < active) {
      try {
        (*task)(rank);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = error;
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last worker out: pair with the caller's predicate check.
      { std::lock_guard lock(mutex_); }
      done_cv_.notify_one();
    }
  }
}

Range partition_range(std::int64_t total, int parts, int part, std::int64_t align) {
  AG_CHECK(parts >= 1 && part >= 0 && part < parts && align >= 1 && total >= 0);
  // Distribute ceil(total/align) chunks across parts as evenly as possible.
  const std::int64_t chunks = ceil_div(total, align);
  const std::int64_t base = chunks / parts;
  const std::int64_t extra = chunks % parts;
  const std::int64_t my_chunks = base + (part < extra ? 1 : 0);
  const std::int64_t first_chunk = part * base + std::min<std::int64_t>(part, extra);
  Range r;
  r.begin = std::min(first_chunk * align, total);
  r.end = std::min(r.begin + my_chunks * align, total);
  return r;
}

}  // namespace ag
