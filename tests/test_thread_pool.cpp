// Thread pool, barrier and range partitioning tests.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/check.hpp"
#include "scoped_knobs.hpp"
#include "threading/thread_pool.hpp"

using ag::Barrier;
using ag::partition_range;
using ag::Range;
using ag::ThreadPool;

TEST(ThreadPoolTest, RunsAllRanksOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int rank) { hits[static_cast<std::size_t>(rank)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int value = 0;
  pool.run([&](int rank) {
    EXPECT_EQ(rank, 0);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

#if defined(__linux__)
TEST(ThreadPoolTest, WorkersAreNamedByRank) {
  // Worker threads carry "armgemm-w<rank>" names so external profilers
  // and /proc line up with the pool's rank numbering. Rank 0 is the
  // caller's own thread and keeps its name.
  ThreadPool pool(3);
  std::array<std::string, 3> names;
  pool.run([&](int rank) {
    char buf[32] = {0};
    pthread_getname_np(pthread_self(), buf, sizeof(buf));
    names[static_cast<std::size_t>(rank)] = buf;
  });
  EXPECT_EQ(names[1], "armgemm-w1");
  EXPECT_EQ(names[2], "armgemm-w2");
  EXPECT_NE(names[0], "armgemm-w0");  // caller participates unrenamed
}
#endif

TEST(ThreadPoolTest, RepeatedRegionsAccumulate) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.run([&](int) { counter++; });
  EXPECT_EQ(counter.load(), 150);
}

TEST(ThreadPoolTest, WorkerExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([](int rank) {
    if (rank == 2) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // The pool must remain usable afterwards.
  std::atomic<int> counter{0};
  pool.run([&](int) { counter++; });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPoolTest, CallerExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run([](int rank) {
    if (rank == 0) throw std::logic_error("caller");
  }),
               std::logic_error);
}

TEST(ThreadPoolTest, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), ag::InvalidArgument); }

TEST(ThreadPoolTest, ActiveSubsetRunsOnlyLowRanks) {
  // run(fn, active) lets a region use fewer ranks than the pool owns
  // (e.g. when a problem has fewer blocks than threads) without resizing.
  ThreadPool pool(4);
  for (int active = 1; active <= 4; ++active) {
    std::vector<std::atomic<int>> hits(4);
    pool.run([&](int rank) { hits[static_cast<std::size_t>(rank)]++; }, active);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(hits[static_cast<std::size_t>(r)].load(), r < active ? 1 : 0)
          << "active=" << active << " rank=" << r;
  }
}

TEST(ThreadPoolTest, ActiveOneRunsInlineOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.run([&](int rank) {
    EXPECT_EQ(rank, 0);
    ran_on = std::this_thread::get_id();
  },
           1);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, ActiveSubsetAlternatesWithFullRegions) {
  // Idle ranks must stay synchronized with the fork-join protocol so the
  // next region (possibly wider) never deadlocks or double-runs.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    const int active = 1 + i % 4;
    pool.run([&](int) { counter++; }, active);
  }
  // Sum over i of (1 + i%4) for i in [0, 100): 25 full cycles of 1+2+3+4.
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPoolTest, ActiveSubsetExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([](int rank) {
    if (rank == 1) throw std::runtime_error("subset boom");
  },
                        3),
               std::runtime_error);
  std::atomic<int> counter{0};
  pool.run([&](int) { counter++; });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPoolTest, RejectsActiveOutOfRange) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run([](int) {}, 0), ag::InvalidArgument);
  EXPECT_THROW(pool.run([](int) {}, 3), ag::InvalidArgument);
}

TEST(BarrierTest, SynchronisesPhases) {
  ThreadPool pool(4);
  Barrier barrier(4);
  std::atomic<int> phase1{0};
  std::vector<int> seen(4, -1);
  pool.run([&](int rank) {
    phase1++;
    barrier.arrive_and_wait();
    // After the barrier every rank must observe all phase-1 increments.
    seen[static_cast<std::size_t>(rank)] = phase1.load();
  });
  for (int s : seen) EXPECT_EQ(s, 4);
}

TEST(BarrierTest, ReusableAcrossGenerations) {
  ThreadPool pool(3);
  Barrier barrier(3);
  std::atomic<int> counter{0};
  pool.run([&](int) {
    for (int i = 0; i < 20; ++i) {
      counter++;
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(counter.load(), 60);
}

// Stress the hybrid barrier down both of its paths: a generous spin
// window keeps waiters on the busy-poll fast path; a zero window forces
// every waiter straight onto the condvar slow path. Phase counters verify
// no rank ever runs ahead or drops a generation either way.
void barrier_stress(std::int64_t spin_us) {
  agtest::ScopedKnob spin(ag::Knob::kSpinUs, spin_us);
  constexpr int kRanks = 4;
  constexpr int kPhases = 200;
  ThreadPool pool(kRanks);
  Barrier barrier(kRanks);
  std::vector<std::atomic<int>> phase(kRanks);
  pool.run([&](int rank) {
    for (int p = 0; p < kPhases; ++p) {
      phase[static_cast<std::size_t>(rank)].store(p, std::memory_order_relaxed);
      barrier.arrive_and_wait();
      // Between two barriers every rank must be in the same phase.
      for (int r = 0; r < kRanks; ++r)
        ASSERT_EQ(phase[static_cast<std::size_t>(r)].load(std::memory_order_relaxed), p)
            << "rank " << rank << " saw rank " << r << " out of phase at " << p;
      barrier.arrive_and_wait();
    }
  });
}

TEST(BarrierTest, HybridSpinPathSurvivesStress) { barrier_stress(/*spin_us=*/1000); }

TEST(BarrierTest, ImmediateBlockPathSurvivesStress) { barrier_stress(/*spin_us=*/0); }

TEST(PartitionTest, CoversRangeWithoutOverlap) {
  for (std::int64_t total : {0, 1, 7, 64, 100, 1001}) {
    for (int parts : {1, 2, 3, 8}) {
      for (std::int64_t align : {1, 8, 24}) {
        std::int64_t covered = 0;
        std::int64_t prev_end = 0;
        for (int p = 0; p < parts; ++p) {
          const Range r = partition_range(total, parts, p, align);
          EXPECT_EQ(r.begin, prev_end);
          EXPECT_LE(r.begin, r.end);
          prev_end = r.end;
          covered += r.size();
          // Every part that does not contain the ragged tail is aligned.
          if (r.end < total) EXPECT_EQ(r.size() % align, 0) << "interior chunk alignment";
        }
        EXPECT_EQ(prev_end, total);
        EXPECT_EQ(covered, total);
      }
    }
  }
}

TEST(PartitionTest, BalancedWithinOneChunk) {
  // Parts differ by at most one aligned chunk, plus the ragged tail of the
  // part that owns the end of the range.
  const std::int64_t total = 1000, align = 24;
  std::int64_t lo = total, hi = 0;
  for (int p = 0; p < 8; ++p) {
    const Range r = partition_range(total, 8, p, align);
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LT(hi - lo, 2 * align);
}

TEST(PartitionTest, InvalidArgumentsThrow) {
  EXPECT_THROW(partition_range(10, 0, 0, 1), ag::InvalidArgument);
  EXPECT_THROW(partition_range(10, 2, 2, 1), ag::InvalidArgument);
  EXPECT_THROW(partition_range(10, 2, 0, 0), ag::InvalidArgument);
}
