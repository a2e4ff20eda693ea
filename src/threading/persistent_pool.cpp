#include "threading/persistent_pool.hpp"

#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/telemetry.hpp"
#include "threading/spin.hpp"
#include "threading/topology.hpp"

namespace ag {

namespace {

/// Batch workers get their own name prefix ("armgemm-pw") so timelines and
/// /proc distinguish them from the fork-join pool's "armgemm-w" ranks.
void name_batch_thread(int rank) {
#if defined(__linux__)
  char name[16];
  std::snprintf(name, sizeof(name), "armgemm-pw%d", rank);
  pthread_setname_np(pthread_self(), name);
#else
  (void)rank;
#endif
}

}  // namespace

PersistentPool::StealOrder PersistentPool::build_steal_order(const Topology& topo,
                                                             int home, int node) {
  StealOrder order;
  order.shards.reserve(kShards);
  order.shards.push_back(home);
  for (int i = 1; i < kShards; ++i) {
    const int s = (home + i) % kShards;
    if (topo.node_of_rank(s) == node) order.shards.push_back(s);
  }
  order.same_node = static_cast<int>(order.shards.size());
  for (int i = 1; i < kShards; ++i) {
    const int s = (home + i) % kShards;
    if (topo.node_of_rank(s) != node) order.shards.push_back(s);
  }
  return order;
}

PersistentPool& PersistentPool::instance() {
  // Leaky singleton: retiring the workers during static destruction would
  // race other translation units' teardown; the OS reclaims the threads.
  // The obs snapshot source registers here (once, under the magic-static
  // guard) because obs cannot link back to threading.
  static PersistentPool* pool = [] {
    auto* p = new PersistentPool;
    obs::set_scheduler_stats_source(
        +[] { return PersistentPool::instance().stats(); });
    return p;
  }();
  return *pool;
}

void PersistentPool::resize(int n) {
  if (n < 0) n = 0;
  std::lock_guard lock(resize_mutex_);
  const int cur = static_cast<int>(threads_.size());
  if (n > cur) {
    target_.store(n, std::memory_order_release);
    if (n > peak_workers_.load(std::memory_order_relaxed))
      peak_workers_.store(n, std::memory_order_relaxed);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int r = cur; r < n; ++r) threads_.emplace_back([this, r] { worker_loop(r); });
  } else if (n < cur) {
    target_.store(n, std::memory_order_release);
    // The empty critical section orders the target_ store against a
    // blocked worker's predicate check (no lost retirement wakeup).
    { std::lock_guard wl(work_mutex_); }
    work_cv_.notify_all();
    for (int r = n; r < cur; ++r) threads_[static_cast<std::size_t>(r)].join();
    threads_.resize(static_cast<std::size_t>(n));
  }
}

void PersistentPool::ensure_workers(int n) {
  if (n <= target_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(resize_mutex_);
  const int cur = static_cast<int>(threads_.size());
  if (n <= cur) return;
  target_.store(n, std::memory_order_release);
  if (n > peak_workers_.load(std::memory_order_relaxed))
    peak_workers_.store(n, std::memory_order_relaxed);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int r = cur; r < n; ++r) threads_.emplace_back([this, r] { worker_loop(r); });
}

void PersistentPool::wake_workers() {
  {
    std::lock_guard lock(work_mutex_);
    work_epoch_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
}

bool PersistentPool::try_pop(const StealOrder& order, bool allow_remote, Item* out,
                             PopInfo* pop, std::uint64_t* failed_steals) {
  const int limit = allow_remote ? static_cast<int>(order.shards.size())
                                 : order.same_node;
  for (int i = 0; i < limit; ++i) {
    // Nothing queued anywhere: stop before taking a shard lock, so idle
    // sweeps record no failed steals. execute() counts an item into
    // queued_ before pushing it, so a shard holding an item implies
    // queued_ > 0; and it raises queued_ before its wake_workers() epoch
    // bump, so a worker that skips here still sees the next submission.
    if (queued_.load(std::memory_order_relaxed) == 0) return false;
    const int shard = order.shards[static_cast<std::size_t>(i)];
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    std::lock_guard lock(s.mutex);
    if (s.items.empty()) {
      // A foreign probe that comes up empty is a failed steal; the home
      // shard being empty is just an idle scan.
      if (i != 0) ++*failed_steals;
      continue;
    }
    if (i == 0) {
      // Home shard drains FIFO (oldest ticket first keeps queue waits
      // honest); thieves take from the back to reduce interference.
      *out = s.items.front();
      s.items.pop_front();
    } else {
      *out = s.items.back();
      s.items.pop_back();
    }
    const std::int64_t after =
        queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
    pop->shard = shard;
    pop->stolen = (i != 0);
    pop->cross_node = (i >= order.same_node);
    pop->depth_after = after;
    return true;
  }
  return false;
}

void PersistentPool::run_item(const Item& item, const PopInfo& pop,
                              int runner_rank, SchedCounters* sc) {
  const double wait = now_seconds() - item.submit_seconds;
  TicketInfo info;
  info.queue_wait_seconds = wait > 0 ? wait : 0.0;
  info.runner_rank = runner_rank;
  info.shard = pop.shard;
  info.stolen = pop.stolen;
  info.inline_overflow = false;
  info.queue_depth = pop.depth_after;

  std::uint64_t t0 = 0;
  if constexpr (obs::stats_compiled_in) {
    if (sc != nullptr) t0 = now_ns();
  }
  Submission& sub = *item.sub;
  try {
    sub.source->run_ticket(item.ticket, info);
  } catch (...) {
    std::lock_guard lock(sub.error_mutex);
    if (!sub.failed.exchange(true, std::memory_order_acq_rel))
      sub.first_error = std::current_exception();
  }
  if constexpr (obs::stats_compiled_in) {
    if (sc != nullptr) {
      const std::uint64_t dt = now_ns() - t0;
      sc->busy_ns.fetch_add(dt, std::memory_order_relaxed);
      sc->run.fetch_add(1, std::memory_order_relaxed);
      if (pop.stolen) {
        sc->stolen.fetch_add(1, std::memory_order_relaxed);
        (pop.cross_node ? sc->stolen_cross_node : sc->stolen_same_node)
            .fetch_add(1, std::memory_order_relaxed);
      }
      // Online weight refinement: pool workers report (class, busy ns)
      // per ticket so Topology can replace discovery-seed weights with
      // measured throughput ratios. Helping callers are unpinned and
      // unattributable, so they don't feed the estimate.
      if (runner_rank >= 0) {
        const Topology& topo = Topology::get();
        topo.note_ticket(topo.class_of_rank(runner_rank), dt);
      }
    }
  }
  finish_ticket(sub);
}

void PersistentPool::finish_ticket(Submission& sub) {
  // After this decrement reaches zero the submission may be destroyed by
  // the waiting caller, so `sub` must not be touched again. The notify
  // goes through pool-lifetime state only.
  if (sub.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    { std::lock_guard lock(done_mutex_); }
    done_cv_.notify_all();
  }
}

void PersistentPool::execute(TaskSource& source, std::int64_t n_tickets) {
  if (n_tickets <= 0) return;
  Submission sub;
  sub.source = &source;
  sub.remaining.store(n_tickets, std::memory_order_relaxed);

  // Enqueue under the admission limit; overflow runs inline below. The
  // limit check is advisory (concurrent submitters may briefly overshoot
  // by a few tickets) — it bounds memory, not exact occupancy.
  const std::int64_t depth = queue_depth();
  const double submit_t = now_seconds();
  std::int64_t inline_from = n_tickets;
  std::int64_t enqueued = 0;
  for (std::int64_t t = 0; t < n_tickets; ++t) {
    if (queued_.load(std::memory_order_relaxed) >= depth) {
      inline_from = t;
      break;
    }
    Shard& s = shards_[static_cast<std::size_t>(
        submit_cursor_.fetch_add(1, std::memory_order_relaxed) % kShards)];
    queued_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lock(s.mutex);
      s.items.push_back({&sub, t, submit_t});
    }
    ++enqueued;
  }
  if (enqueued > 0 && target_.load(std::memory_order_acquire) > 0) wake_workers();

  if constexpr (obs::stats_compiled_in) {
    submissions_.fetch_add(1, std::memory_order_relaxed);
    enqueued_total_.fetch_add(static_cast<std::uint64_t>(enqueued),
                              std::memory_order_relaxed);
    inline_total_.fetch_add(static_cast<std::uint64_t>(n_tickets - inline_from),
                            std::memory_order_relaxed);
  }

  // Overflow tickets first (the queue rejected them; the caller owes them
  // cycles before helping with anything else), then help drain.
  for (std::int64_t t = inline_from; t < n_tickets; ++t) {
    TicketInfo info;
    info.inline_overflow = true;
    std::uint64_t t0 = 0;
    if constexpr (obs::stats_compiled_in) t0 = now_ns();
    try {
      source.run_ticket(t, info);
    } catch (...) {
      std::lock_guard lock(sub.error_mutex);
      if (!sub.failed.exchange(true, std::memory_order_acq_rel))
        sub.first_error = std::current_exception();
    }
    if constexpr (obs::stats_compiled_in) {
      caller_counters_.busy_ns.fetch_add(now_ns() - t0,
                                         std::memory_order_relaxed);
      caller_counters_.run.fetch_add(1, std::memory_order_relaxed);
      caller_counters_.inline_run.fetch_add(1, std::memory_order_relaxed);
    }
    finish_ticket(sub);
  }

  // Help: run whatever is poppable (any submission's tickets) until ours
  // completes. When nothing is poppable every one of our tickets is
  // already claimed — by a worker or by this loop — so blocking is safe
  // even with zero workers. Callers always scan every shard (same-node
  // first for the locality attribution): their full sweep is what keeps
  // cross-node deferral in the workers from stranding queued work.
  const Topology& topo = Topology::get();
  const StealOrder order = build_steal_order(topo, 0, topo.current_node());
  SpinWait spinner;
  std::uint64_t failed_steals = 0;
  while (sub.remaining.load(std::memory_order_acquire) != 0) {
    Item item;
    PopInfo pop;
    if (try_pop(order, /*allow_remote=*/true, &item, &pop, &failed_steals)) {
      run_item(item, pop, /*runner_rank=*/-1, &caller_counters_);
      spinner = SpinWait();
      continue;
    }
    if (!spinner.spin()) {
      if constexpr (obs::stats_compiled_in)
        caller_counters_.blocks.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock lock(done_mutex_);
      done_cv_.wait(lock, [&] {
        return sub.remaining.load(std::memory_order_acquire) == 0;
      });
    }
  }

  if constexpr (obs::stats_compiled_in)
    caller_counters_.steal_failures.fetch_add(failed_steals, std::memory_order_relaxed);

  if (sub.failed.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    {
      std::lock_guard lock(sub.error_mutex);
      err = sub.first_error;
    }
    if (err) std::rethrow_exception(err);
  }
}

void PersistentPool::worker_loop(int rank) {
  name_batch_thread(rank);
  obs::telemetry_register_thread("armgemm-pw" + std::to_string(rank));
  SchedCounters& sc = slot(rank);
  const int home = rank % kShards;

  // Topology: pin (opt-in), then derive the node-ordered steal scan. The
  // snapshot pointer is re-checked each iteration so a test's
  // Topology::refresh() under emulation knobs re-sorts the scan without
  // restarting the pool.
  const Topology* topo = &Topology::get();
  if (affinity_enabled()) topo->pin_current_thread_to_rank(rank);
  StealOrder order = build_steal_order(*topo, home, topo->node_of_rank(rank));
  const auto steal_threshold = [] {
    const std::int64_t v = cross_node_steal_threshold();
    return v > 0 ? v : 0;
  };
  std::int64_t failed_local_sweeps = 0;

  Item item;
  PopInfo pop;
  // Idle time accrues from the end of one ticket to the start of the
  // next (scan + spin + block); busy time is measured inside run_item.
  // The idle period's counters (its time, blocks and failed steals) are
  // published when it ends, so an idle worker records nothing after the
  // last submission completes.
  std::uint64_t idle_start = 0;
  std::uint64_t idle_blocks = 0, failed_steals = 0;
  if constexpr (obs::stats_compiled_in) idle_start = now_ns();
  const auto note_idle_end = [&] {
    if constexpr (obs::stats_compiled_in) {
      const std::uint64_t t = now_ns();
      sc.idle_ns.fetch_add(t - idle_start, std::memory_order_relaxed);
      if (idle_blocks) sc.blocks.fetch_add(idle_blocks, std::memory_order_relaxed);
      if (failed_steals)
        sc.steal_failures.fetch_add(failed_steals, std::memory_order_relaxed);
    }
    idle_blocks = failed_steals = 0;
  };
  const auto note_idle_begin = [&] {
    if constexpr (obs::stats_compiled_in) idle_start = now_ns();
  };
  for (;;) {
    if (rank >= target_.load(std::memory_order_acquire)) {
      note_idle_end();
      return;
    }
    if (const Topology* cur = &Topology::get(); cur != topo) {
      topo = cur;
      order = build_steal_order(*topo, home, topo->node_of_rank(rank));
      failed_local_sweeps = 0;
    }
    // Cross-node shards join the scan only after enough same-node sweeps
    // came up dry (the work really is remote, so fetch it), or trivially
    // on a single-node host where the split is vacuous.
    const bool allow_remote = topo->num_nodes() <= 1 ||
                              failed_local_sweeps >= steal_threshold();
    if (try_pop(order, allow_remote, &item, &pop, &failed_steals)) {
      failed_local_sweeps = 0;
      note_idle_end();
      run_item(item, pop, rank, &sc);
      note_idle_begin();
      continue;
    }
    ++failed_local_sweeps;
    // Idle: snapshot the work epoch, re-check the queue (an item pushed
    // before the snapshot is either visible in a shard or its epoch bump
    // is ahead of the snapshot), then spin-wait and finally block. The
    // re-check is always a full scan: a worker must never sleep while
    // any shard — local or remote — still holds work.
    const std::uint64_t seen = work_epoch_.load(std::memory_order_acquire);
    if (try_pop(order, /*allow_remote=*/true, &item, &pop, &failed_steals)) {
      failed_local_sweeps = 0;
      note_idle_end();
      run_item(item, pop, rank, &sc);
      note_idle_begin();
      continue;
    }
    const auto wake = [&] {
      return work_epoch_.load(std::memory_order_acquire) != seen ||
             rank >= target_.load(std::memory_order_acquire);
    };
    SpinWait spinner;
    bool woken = false;
    while (spinner.spin()) {
      if (wake()) {
        woken = true;
        break;
      }
    }
    if (!woken) {
      ++idle_blocks;
      std::unique_lock lock(work_mutex_);
      work_cv_.wait(lock, wake);
    }
  }
}

obs::SchedulerStats PersistentPool::stats() const {
  obs::SchedulerStats out;
  out.workers = target_.load(std::memory_order_acquire);
  out.queued = queued_.load(std::memory_order_acquire);
  out.submissions = submissions_.load(std::memory_order_relaxed);
  out.tickets_enqueued = enqueued_total_.load(std::memory_order_relaxed);
  out.tickets_inline = inline_total_.load(std::memory_order_relaxed);

  const auto read_lane = [](const SchedCounters& sc, const std::string& name) {
    obs::SchedulerWorkerStats w;
    w.name = name;
    w.tickets_run = sc.run.load(std::memory_order_relaxed);
    w.tickets_stolen = sc.stolen.load(std::memory_order_relaxed);
    w.steals_local = sc.stolen_same_node.load(std::memory_order_relaxed);
    w.steals_remote = sc.stolen_cross_node.load(std::memory_order_relaxed);
    w.tickets_inline = sc.inline_run.load(std::memory_order_relaxed);
    w.steal_failures = sc.steal_failures.load(std::memory_order_relaxed);
    // Every foreign probe either steals or fails, so the attempts are
    // their sum by construction.
    w.steal_attempts = w.tickets_stolen + w.steal_failures;
    w.blocks = sc.blocks.load(std::memory_order_relaxed);
    w.busy_seconds =
        static_cast<double>(sc.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    w.idle_seconds =
        static_cast<double>(sc.idle_ns.load(std::memory_order_relaxed)) * 1e-9;
    return w;
  };

  int lanes = peak_workers_.load(std::memory_order_relaxed);
  if (lanes > kMaxCounterSlots) lanes = kMaxCounterSlots;
  out.per_worker.reserve(static_cast<std::size_t>(lanes) + 1);
  for (int r = 0; r < lanes; ++r)
    out.per_worker.push_back(
        read_lane(worker_counters_[r], "armgemm-pw" + std::to_string(r)));
  out.per_worker.push_back(read_lane(caller_counters_, "callers"));
  return out;
}

void PersistentPool::reset_stats() {
  const auto zero = [](SchedCounters& sc) {
    sc.run.store(0, std::memory_order_relaxed);
    sc.stolen.store(0, std::memory_order_relaxed);
    sc.stolen_same_node.store(0, std::memory_order_relaxed);
    sc.stolen_cross_node.store(0, std::memory_order_relaxed);
    sc.inline_run.store(0, std::memory_order_relaxed);
    sc.steal_failures.store(0, std::memory_order_relaxed);
    sc.blocks.store(0, std::memory_order_relaxed);
    sc.busy_ns.store(0, std::memory_order_relaxed);
    sc.idle_ns.store(0, std::memory_order_relaxed);
  };
  for (SchedCounters& sc : worker_counters_) zero(sc);
  zero(caller_counters_);
  submissions_.store(0, std::memory_order_relaxed);
  enqueued_total_.store(0, std::memory_order_relaxed);
  inline_total_.store(0, std::memory_order_relaxed);
}

}  // namespace ag
