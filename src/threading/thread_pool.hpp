// Persistent fork-join thread pool.
//
// The GEMM driver executes its parallel region on all pool threads at once
// (the calling thread participates as rank 0), matching the paper's model
// of one thread per core cooperating on a single GEMM. Workers persist
// across calls so repeated GEMMs do not pay thread creation cost.
//
// Two kinds of region. run() is the blocked path's: every active rank runs
// the function, ranks may meet at a Barrier, and the join waits for every
// worker to check in. run_tickets() is the small path's: the caller and
// whichever workers arrive in time claim tickets from a counter, and the
// join waits only for the workers that entered, so a worker still asleep
// when the tickets run out costs the caller nothing.
//
// Fork-join edges and the Barrier are hybrid spin-then-block: waiters spin
// for a bounded window (ARMGEMM_SPIN_US, see threading/spin.hpp) before
// parking on a condition variable, so back-to-back GEMM calls and per-panel
// syncs stay syscall-free while long idle periods still release the core.
// A region start and a join notify only when someone is parked.
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

  /// Runs fn(t) exactly once for every ticket t in [0, tickets). The
  /// caller claims tickets, and so does each worker of rank below
  /// `tickets` that enters while the region is open. Returns once every
  /// ticket has finished, having waited only for the workers that
  /// entered: a worker that wakes after the caller closed the region
  /// touches none of its state, `fn` included. Returns how many ranks ran
  /// at least one ticket. The first exception a ticket throws is
  /// rethrown on the caller once every ticket has run. Tickets must not
  /// wait for each other (no Barrier). Not reentrant, and not concurrent
  /// with run().
  int run_tickets(const std::function<void(std::int64_t)>& fn, std::int64_t tickets);

 private:
  void worker_loop(int rank);
  /// Waits, spinning then parked, until generation_ differs from `seen`.
  std::uint64_t await_region(std::uint64_t seen);
  /// Starts a region: stores its generation word, and wakes the parked
  /// workers if there are any.
  void publish(std::uint64_t word);
  /// Waits, spinning then parked, until done() holds; the ranks that
  /// make it hold call wake_caller().
  template <typename Done>
  void await_join(Done done);
  void wake_caller();
  /// A worker's turn in ticket region `seq`: enters if it is still open,
  /// drains tickets, leaves.
  void join_tickets(std::uint64_t seq);
  /// Claims and runs tickets until none is left; true if it ran one.
  bool drain_tickets();
  void record_error(std::exception_ptr error);

  int num_threads_;
  std::vector<std::thread> workers_;

  // Region hand-off. generation_ is one word per region: a sequence
  // number, the region's kind (run() or tickets) and how many ranks may
  // take part; its store publishes the region's fields below, which
  // workers read after an acquire load of it. parked_ counts workers
  // asleep on start_cv_; caller_parked_ is set while the caller sleeps on
  // done_cv_.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> parked_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutdown_{false};
  // Written under mutex_ by the ranks of a region; read and reset by the
  // caller after the join, which orders it after every write.
  std::exception_ptr first_error_;

  // run(): pending_ counts workers that have not checked in.
  const std::function<void(int)>* task_ = nullptr;
  std::atomic<int> pending_{0};

  // run_tickets(): gate_ is the ticket region's sequence number, an open
  // bit and the count of workers inside. A worker enters by incrementing
  // the count while the sequence matches and the region is open; the
  // caller closes it and waits for the count to drain. Only workers inside
  // touch the fields after it, which the caller rewrites only when none is.
  alignas(64) std::atomic<std::uint64_t> gate_{0};
  const std::function<void(std::int64_t)>* ticket_fn_ = nullptr;
  std::int64_t ticket_count_ = 0;
  alignas(64) std::atomic<std::int64_t> next_ticket_{0};
  std::atomic<int> ticket_ranks_{0};  // workers that ran a ticket
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
