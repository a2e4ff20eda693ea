// Thread-safety: concurrent dgemm calls from independent host threads
// (the "batched GEMM" usage pattern) must be correct both when each
// caller has its own Context and when they share one read-only serial
// Context (per-call scratch buffers make the serial path reentrant).
// The *SetThreads* stress cases additionally race thread-count
// reconfiguration (Context::set_threads on per-thread contexts,
// armgemm_set_num_threads on the process-global C API state) against
// in-flight dgemm calls; run them under -DAG_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "blas/compare.hpp"
#include "blas/reference_gemm.hpp"
#include "capi/armgemm_cblas.h"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "scoped_knobs.hpp"
#include "threading/persistent_pool.hpp"

using ag::index_t;
using ag::Matrix;

namespace {

struct Problem {
  Matrix<double> a, b, c, c_ref;
  index_t m, n, k;
};

Problem make_problem(index_t m, index_t n, index_t k, std::uint64_t seed) {
  Problem p{ag::random_matrix(m, k, seed), ag::random_matrix(k, n, seed + 1),
            ag::random_matrix(m, n, seed + 2), Matrix<double>(0, 0), m, n, k};
  p.c_ref = p.c;
  return p;
}

void verify(const Problem& p) {
  Matrix<double> expect(p.c_ref);
  ag::blocked_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, p.m, p.n,
                    p.k, 1.0, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0, expect.data(),
                    expect.ld());
  const auto cmp = ag::compare_gemm_result(p.c.view(), expect.view(), p.k, 1.0, 1.0, 1.0, 1.0,
                                           1.0);
  EXPECT_TRUE(cmp.ok) << p.m << "x" << p.n << "x" << p.k << " diff " << cmp.max_diff;
}

TEST(ConcurrentGemm, SharedSerialContext) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);  // the path that leases scratch
  const ag::Context ctx(ag::KernelShape{8, 6}, 1);  // read-only, shared
  std::vector<Problem> problems;
  for (int i = 0; i < 6; ++i)
    problems.push_back(make_problem(90 + 7 * i, 70 + 5 * i, 50 + 3 * i, 1000 + 10 * i));

  std::vector<std::thread> workers;
  for (auto& p : problems) {
    workers.emplace_back([&p, &ctx] {
      for (int rep = 0; rep < 3; ++rep) {
        Matrix<double> c(p.c_ref);
        ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, p.m, p.n, p.k,
                  1.0, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0, c.data(), c.ld(), ctx);
        p.c = std::move(c);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& p : problems) verify(p);
}

// Each host thread owns a Context and keeps flipping its thread count
// between dgemm calls while its siblings are mid-flight on theirs: pool
// teardown/recreation in one context must never perturb another.
TEST(ConcurrentGemm, SetThreadsRacingInFlightCallsOnSeparateContexts) {
  constexpr int kThreads = 4;
  constexpr int kReps = 8;
  std::vector<Problem> problems;
  for (int i = 0; i < kThreads; ++i)
    problems.push_back(make_problem(120 + 8 * i, 72 + 6 * i, 48 + 4 * i, 3000 + 10 * i));

  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&problems, i] {
      ag::Context ctx(ag::KernelShape{8, 6}, 1);
      auto& p = problems[static_cast<std::size_t>(i)];
      for (int rep = 0; rep < kReps; ++rep) {
        ctx.set_threads(1 + (rep + i) % 3);  // 1, 2, 3 threads in rotation
        Matrix<double> c(p.c_ref);
        ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, p.m, p.n, p.k,
                  1.0, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0, c.data(), c.ld(), ctx);
        p.c = std::move(c);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& p : problems) verify(p);
}

// armgemm_set_num_threads mutates process-global state while cblas_dgemm
// calls are in flight on other host threads. Each caller owns a
// thread-local context, so the new count may only be observed between
// calls — results must stay correct throughout and TSan must stay quiet.
TEST(ConcurrentGemm, CapiSetNumThreadsRacingInFlightCalls) {
  constexpr int kWorkers = 3;
  constexpr int kReps = 10;
  const int threads_before = armgemm_get_num_threads();
  std::vector<Problem> problems;
  for (int i = 0; i < kWorkers; ++i)
    problems.push_back(make_problem(100 + 9 * i, 80 + 7 * i, 56 + 5 * i, 4000 + 10 * i));

  std::atomic<bool> stop{false};
  std::thread controller([&stop] {
    int t = 1;
    while (!stop.load()) {
      armgemm_set_num_threads(1 + t % 4);
      ++t;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&problems, i] {
      auto& p = problems[static_cast<std::size_t>(i)];
      for (int rep = 0; rep < kReps; ++rep) {
        Matrix<double> c(p.c_ref);
        cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, static_cast<int>(p.m),
                    static_cast<int>(p.n), static_cast<int>(p.k), 1.0, p.a.data(),
                    static_cast<int>(p.a.ld()), p.b.data(), static_cast<int>(p.b.ld()), 1.0,
                    c.data(), static_cast<int>(c.ld()));
        p.c = std::move(c);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  controller.join();
  armgemm_set_num_threads(threads_before);
  for (const auto& p : problems) verify(p);
}

// Batch submissions racing PersistentPool::resize: a controller keeps
// growing and shrinking the persistent worker set (including all the way
// to zero workers) while callers push batches through the queue. Shrink
// joins surplus workers mid-stream and grow spawns into a live queue;
// callers always help execute, so forward progress must hold even in the
// zero-worker window. Results must stay correct throughout; run under
// -DAG_SANITIZE=thread for the race proof.
TEST(ConcurrentGemm, BatchCallsRacingPersistentPoolResize) {
  constexpr int kCallers = 3;
  constexpr int kReps = 6;
  std::vector<Problem> problems;
  for (int i = 0; i < kCallers; ++i)
    problems.push_back(make_problem(96 + 8 * i, 64 + 6 * i, 48 + 4 * i, 5000 + 10 * i));

  std::atomic<bool> stop{false};
  std::thread controller([&stop] {
    int t = 0;
    while (!stop.load()) {
      ag::PersistentPool::instance().resize(t % 4);  // 0..3 workers in rotation
      ++t;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&problems, i] {
      ag::Context ctx(ag::KernelShape{8, 6}, 3);
      auto& p = problems[static_cast<std::size_t>(i)];
      for (int rep = 0; rep < kReps; ++rep) {
        Matrix<double> c(p.c_ref);
        ag::GemmBatchEntry e;
        e.m = p.m;
        e.n = p.n;
        e.k = p.k;
        e.alpha = 1.0;
        e.beta = 1.0;
        e.a = p.a.data();
        e.lda = p.a.ld();
        e.b = p.b.data();
        e.ldb = p.b.ld();
        e.c = c.data();
        e.ldc = c.ld();
        ag::dgemm_batch(ag::Layout::ColMajor, &e, 1, ctx);
        p.c = std::move(c);
      }
    });
  }
  for (auto& w : callers) w.join();
  stop.store(true);
  controller.join();
  for (const auto& p : problems) verify(p);
}

TEST(ConcurrentGemm, IndependentContexts) {
  std::vector<Problem> problems;
  for (int i = 0; i < 4; ++i)
    problems.push_back(make_problem(110, 85, 64, 2000 + 10 * i));

  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    workers.emplace_back([&problems, i] {
      // Each host thread owns a Context; shapes alternate.
      ag::Context ctx(i % 2 ? ag::KernelShape{8, 4} : ag::KernelShape{8, 6}, 1);
      auto& p = problems[i];
      ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, p.m, p.n, p.k,
                1.0, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0, p.c.data(), p.c.ld(),
                ctx);
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& p : problems) verify(p);
}

}  // namespace
