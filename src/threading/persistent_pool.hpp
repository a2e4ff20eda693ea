// Persistent task scheduler for batched GEMM serving.
//
// Unlike the fork-join ThreadPool (which gangs exactly nthreads ranks on
// one parallel region and joins them per call), the PersistentPool keeps a
// process-lifetime set of workers draining a cross-call work queue of
// tickets. Submissions from any number of caller threads interleave in
// the same queue, so a batch of small GEMMs never pays one fork/join per
// entry, and concurrent batch calls share the worker set instead of
// oversubscribing the host with per-caller pools.
//
// Structure:
//
//   * The queue is sharded (kShards mutex-protected deques) so concurrent
//     submitters and workers rarely contend on the same lock. Workers
//     prefer their home shard (rank % kShards), then steal from shards
//     homed on their own NUMA node (threading/topology), and only probe
//     cross-node shards after ARMGEMM_CROSS_NODE_STEAL consecutive failed
//     same-node sweeps — a remote steal drags the ticket's operands over
//     the interconnect, so it is a last resort, not a first choice. The
//     pre-block re-check and helping callers always scan every shard, so
//     deferral never strands queued work.
//   * ARMGEMM_AFFINITY=1 pins each worker to its topology cpu
//     (cpu_of_rank), making the node/class map real instead of advisory.
//     Off by default: pinning fights external schedulers (cgroup quotas,
//     co-tenant processes) when the host is shared.
//   * Callers always help: execute() runs tickets itself until its
//     submission completes, so a pool resized to zero workers still makes
//     progress (and a single-threaded context needs no workers at all).
//   * Admission control: at most ARMGEMM_QUEUE_DEPTH tickets may be
//     enqueued across all submissions; tickets beyond that run inline on
//     the submitting caller (backpressure sheds load instead of growing
//     the queue without bound).
//   * Idle workers spin for the ARMGEMM_SPIN_US window (threading/spin)
//     before blocking, same hybrid policy as the fork-join pool.
//
// Introspection: every scheduling decision is counted into lock-free
// per-worker slots (tickets run/stolen/inline, steal attempts/failures,
// spin-to-block transitions, busy/idle nanoseconds) plus one merged
// "callers" slot for helping submitters. stats() merges them into an
// obs::SchedulerStats snapshot, which instance() registers as the
// process-wide scheduler source for the telemetry exposition. Counter
// updates are relaxed stores on ticket granularity (never per kernel
// tile) and compile out entirely under -DARMGEMM_STATS=OFF.
//
// Every ticket's scheduling provenance (queue wait, runner rank, shard,
// steal origin, queue depth at pop) is reported back through
// TaskSource::run_ticket so the batch driver can record it in the serving
// telemetry and the Chrome-trace timeline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/runtime_introspect.hpp"

namespace ag {

class Topology;

/// Scheduling provenance of one ticket, handed to run_ticket.
struct TicketInfo {
  /// How long the ticket sat in the queue before a thread picked it up
  /// (0 for tickets the admission limit forced inline on the caller).
  double queue_wait_seconds = 0;
  int runner_rank = -1;   ///< pool worker rank; -1 = a helping/submitting caller
  int shard = -1;         ///< shard the ticket was popped from; -1 = never queued
  bool stolen = false;    ///< popped from a non-home shard
  bool inline_overflow = false;  ///< admission limit ran it inline on the caller
  std::int64_t queue_depth = 0;  ///< tickets left in the queue right after the pop
};

/// One submission's work: tickets [0, n_tickets) handed to
/// PersistentPool::execute. run_ticket must be safe to call concurrently
/// for distinct tickets from any thread (workers and helping callers).
class TaskSource {
 public:
  virtual ~TaskSource() = default;

  /// Runs ticket `ticket`; `info` carries its scheduling provenance.
  virtual void run_ticket(std::int64_t ticket, const TicketInfo& info) = 0;
};

class PersistentPool {
 public:
  PersistentPool(const PersistentPool&) = delete;
  PersistentPool& operator=(const PersistentPool&) = delete;

  /// The process-wide pool (created on first use, never destroyed — the
  /// serving queue must outlive static-destruction-order vagaries).
  static PersistentPool& instance();

  /// Current worker-thread count (callers always help on top of this).
  int workers() const { return target_.load(std::memory_order_acquire); }

  /// Sets the worker count to `n` (>= 0). Growing spawns threads;
  /// shrinking retires and joins the surplus after they finish their
  /// current ticket. Safe concurrently with execute() from other threads:
  /// queued work keeps draining because callers help.
  void resize(int n);

  /// Grows to at least `n` workers; never shrinks (concurrent contexts
  /// with different thread counts keep the largest requested set).
  void ensure_workers(int n);

  /// Runs tickets [0, n_tickets) of `source`, returning when all have
  /// finished. The caller executes tickets alongside the workers. Tickets
  /// the ARMGEMM_QUEUE_DEPTH admission limit rejects run inline on the
  /// caller in submission order. Exceptions thrown by run_ticket are
  /// collected and the first one is rethrown here after every ticket of
  /// this submission has been claimed.
  void execute(TaskSource& source, std::int64_t n_tickets);

  /// Tickets currently sitting in the queue (diagnostics / tests).
  std::int64_t queued() const { return queued_.load(std::memory_order_acquire); }

  /// Merged scheduler snapshot: per-worker counters (plus the "callers"
  /// lane), queue depth, submission totals. Lock-free reads of relaxed
  /// counters — safe concurrently with execute(). All-zero under
  /// -DARMGEMM_STATS=OFF.
  obs::SchedulerStats stats() const;

  /// Zeroes every scheduler counter (tests segment measurements with
  /// this; concurrent recording may slip an increment past the reset).
  void reset_stats();

 private:
  PersistentPool() = default;

  static constexpr int kShards = 8;
  /// Per-worker counter slots; ranks beyond this share the last slot
  /// (counts stay exact, per-worker attribution saturates — mirrors
  /// GemmStats::kDefaultMaxThreads).
  static constexpr int kMaxCounterSlots = 64;

  struct Submission {
    TaskSource* source = nullptr;
    std::atomic<std::int64_t> remaining{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;  // guarded by error_mutex
    std::mutex error_mutex;
  };

  struct Item {
    Submission* sub;
    std::int64_t ticket;
    double submit_seconds;
  };

  struct Shard {
    std::mutex mutex;
    std::deque<Item> items;
  };

  /// Where try_pop found an item.
  struct PopInfo {
    int shard = -1;
    bool stolen = false;
    bool cross_node = false;  ///< stolen from a shard homed on another node
    std::int64_t depth_after = 0;
  };

  /// One thread's shard scan order: home first, then same-node shards,
  /// then (past index `same_node`) cross-node shards. Rebuilt when the
  /// topology snapshot changes (tests refresh under emulation knobs).
  struct StealOrder {
    std::vector<int> shards;
    int same_node = 0;  ///< shards[0..same_node) are on this thread's node
  };

  /// One scheduler lane's counters. Relaxed atomics: each slot is
  /// written by one worker (or, for the caller slot, by any number of
  /// submitting threads — still exact, just merged). alignas keeps slots
  /// off each other's cache lines.
  struct alignas(64) SchedCounters {
    std::atomic<std::uint64_t> run{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> stolen_same_node{0};
    std::atomic<std::uint64_t> stolen_cross_node{0};
    std::atomic<std::uint64_t> inline_run{0};
    std::atomic<std::uint64_t> steal_failures{0};
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  void worker_loop(int rank);
  /// Shard scan order for a thread whose home shard is `home` and whose
  /// memory lives on `node`. Shard s is "homed" on the node of worker
  /// rank s (the worker whose home shard it is).
  static StealOrder build_steal_order(const Topology& topo, int home, int node);
  /// Scans `order` (the full order when allow_remote, else only the
  /// same-node prefix) and pops one item; returns false at once while
  /// nothing is queued. Probing a non-home shard is a steal attempt;
  /// each one that comes up empty adds to `*failed_steals`.
  bool try_pop(const StealOrder& order, bool allow_remote, Item* out, PopInfo* pop,
               std::uint64_t* failed_steals);
  void run_item(const Item& item, const PopInfo& pop, int runner_rank, SchedCounters* sc);
  void finish_ticket(Submission& sub);
  void wake_workers();
  SchedCounters& slot(int rank) {
    return worker_counters_[rank < kMaxCounterSlots ? rank : kMaxCounterSlots - 1];
  }

  Shard shards_[kShards];
  std::atomic<std::int64_t> queued_{0};
  std::atomic<std::uint64_t> submit_cursor_{0};  // round-robin shard pick

  // Scheduler introspection (see stats()).
  SchedCounters worker_counters_[kMaxCounterSlots];
  SchedCounters caller_counters_;
  std::atomic<std::uint64_t> submissions_{0};
  std::atomic<std::uint64_t> enqueued_total_{0};
  std::atomic<std::uint64_t> inline_total_{0};

  // Worker lifecycle. threads_ is guarded by resize_mutex_; target_ is the
  // count workers compare their rank against to decide to retire.
  std::mutex resize_mutex_;
  std::vector<std::thread> threads_;
  std::atomic<int> target_{0};
  std::atomic<int> peak_workers_{0};  // high-water rank count (stats lanes)

  // Work-available signal: epoch bumps under work_mutex_ before notify, so
  // a worker that saw empty shards re-checks after any submit.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};

  // Completion signal shared by all submissions (pool-lifetime, so no
  // notify-after-destruction hazard on the caller's stack Submission).
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

}  // namespace ag
