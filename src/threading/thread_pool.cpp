#include "threading/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

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

// generation_ word: sequence number << kSeqShift | kFlag for a ticket
// region | the ranks that may take part (kLow). gate_ word: sequence
// number << kSeqShift | kFlag while open | workers inside (kLow).
constexpr int kSeqShift = 17;
constexpr std::uint64_t kFlag = std::uint64_t{1} << 16;
constexpr std::uint64_t kLow = kFlag - 1;

/// The sequence number of the next region; only the caller stores
/// generation_.
std::uint64_t next_seq(const std::atomic<std::uint64_t>& generation) {
  return (generation.load(std::memory_order_relaxed) >> kSeqShift) + 1;
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
  AG_CHECK_MSG(static_cast<std::uint64_t>(num_threads) <= kLow,
               "thread pool holds at most " << kLow << " threads, got " << num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int rank = 1; rank < num_threads; ++rank)
    workers_.emplace_back([this, rank] { worker_loop(rank); });
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(mutex_);
    generation_.fetch_add(std::uint64_t{1} << kSeqShift, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::publish(std::uint64_t word) {
  // Pairs with await_region: a worker counts itself parked and then
  // re-reads the generation under mutex_, so either it sees this store
  // or this load sees it parked and the notify below reaches it.
  generation_.store(word, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard lock(mutex_); }
  start_cv_.notify_all();
}

std::uint64_t ThreadPool::await_region(std::uint64_t seen) {
  std::uint64_t gen;
  SpinWait spinner;
  while ((gen = generation_.load(std::memory_order_acquire)) == seen) {
    if (!spinner.spin()) {
      std::unique_lock lock(mutex_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      start_cv_.wait(lock, [&] {
        return (gen = generation_.load(std::memory_order_seq_cst)) != seen;
      });
      parked_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
  }
  return gen;
}

template <typename Done>
void ThreadPool::await_join(Done done) {
  SpinWait spinner;
  while (!done()) {
    if (!spinner.spin()) {
      // The same handshake as publish/await_region, with the roles
      // swapped: the rank that makes done() hold reads caller_parked_.
      std::unique_lock lock(mutex_);
      caller_parked_.store(true, std::memory_order_seq_cst);
      done_cv_.wait(lock, done);
      caller_parked_.store(false, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::wake_caller() {
  if (!caller_parked_.load(std::memory_order_seq_cst)) return;
  { std::lock_guard lock(mutex_); }
  done_cv_.notify_one();
}

void ThreadPool::record_error(std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  if (!first_error_) first_error_ = std::move(error);
}

void ThreadPool::run(const std::function<void(int)>& fn, int active) {
  AG_CHECK_MSG(active >= 1 && active <= num_threads_,
               "active ranks " << active << " outside [1, " << num_threads_ << "]");
  if (num_threads_ == 1 || active == 1) {
    fn(0);
    return;
  }
  task_ = &fn;
  // Every worker checks in once per run() region even when it is not an
  // active rank, so the join below synchronizes with all of them and the
  // next region may safely rewrite task_.
  pending_.store(num_threads_ - 1, std::memory_order_relaxed);
  publish(next_seq(generation_) << kSeqShift | static_cast<std::uint64_t>(active));

  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  await_join([&] { return pending_.load(std::memory_order_seq_cst) == 0; });
  std::exception_ptr worker_error = std::exchange(first_error_, nullptr);
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

bool ThreadPool::drain_tickets() {
  bool ran = false;
  for (;;) {
    const std::int64_t t = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (t >= ticket_count_) return ran;
    ran = true;
    try {
      (*ticket_fn_)(t);
    } catch (...) {
      record_error(std::current_exception());
    }
  }
}

int ThreadPool::run_tickets(const std::function<void(std::int64_t)>& fn, std::int64_t tickets) {
  AG_CHECK_MSG(tickets >= 0, "negative ticket count " << tickets);
  // No worker is inside: the last ticket region drained its workers
  // before returning, so its fields may be rewritten.
  ticket_fn_ = &fn;
  ticket_count_ = tickets;
  next_ticket_.store(0, std::memory_order_relaxed);
  ticket_ranks_.store(0, std::memory_order_relaxed);
  const int ranks = static_cast<int>(std::min<std::int64_t>(num_threads_, tickets));
  if (ranks > 1) {
    const std::uint64_t seq = next_seq(generation_);
    gate_.store(seq << kSeqShift | kFlag, std::memory_order_relaxed);
    publish(seq << kSeqShift | kFlag | static_cast<std::uint64_t>(ranks));
  }
  const bool ran = drain_tickets();
  // Every ticket is claimed. Close the gate, so a worker that arrives from
  // now on leaves without touching the region, and wait for the workers
  // inside to finish the tickets they hold.
  if (ranks > 1 && (gate_.fetch_and(~kFlag, std::memory_order_seq_cst) & kLow) != 0)
    await_join([&] { return (gate_.load(std::memory_order_seq_cst) & kLow) == 0; });
  const int ran_ranks = (ran ? 1 : 0) + ticket_ranks_.load(std::memory_order_relaxed);
  if (std::exception_ptr error = std::exchange(first_error_, nullptr))
    std::rethrow_exception(error);
  return ran_ranks;
}

void ThreadPool::join_tickets(std::uint64_t seq) {
  std::uint64_t g = gate_.load(std::memory_order_relaxed);
  do {
    if (g >> kSeqShift != seq || (g & kFlag) == 0) return;  // closed, or a later region
  } while (!gate_.compare_exchange_weak(g, g + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed));
  if (drain_tickets()) ticket_ranks_.fetch_add(1, std::memory_order_relaxed);
  // The last worker out of a closed region ends the caller's wait.
  if (gate_.fetch_sub(1, std::memory_order_seq_cst) == (seq << kSeqShift | 1)) wake_caller();
}

void ThreadPool::worker_loop(int rank) {
  name_current_thread(rank);
  // Pre-create this worker's telemetry lane (named to match the pthread
  // name) so the first recorded call never takes the registry lock.
  obs::telemetry_register_thread("armgemm-w" + std::to_string(rank));
  std::uint64_t seen = 0;
  for (;;) {
    seen = await_region(seen);
    if (shutdown_.load(std::memory_order_acquire)) return;
    const bool takes_part = static_cast<std::uint64_t>(rank) < (seen & kLow);
    if (seen & kFlag) {
      if (takes_part) join_tickets(seen >> kSeqShift);
      continue;
    }
    // task_ was written before the generation store we acquired.
    if (takes_part) {
      try {
        (*task_)(rank);
      } catch (...) {
        record_error(std::current_exception());
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) wake_caller();
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
