// Concurrency battery for the persistent batch runtime: many caller
// threads hammering one process-wide pool (run under -DAG_SANITIZE=thread
// for the race proof), plus the bitwise-determinism guarantee — each
// batch entry's ticket decomposition is a pure function of shape and
// blocking, so results must be bit-identical across repeats AND across
// thread counts. Block sizes are pinned (auto-tuned defaults vary with
// the thread count, which would legitimately change the decomposition).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "blas/compare.hpp"
#include "blas/reference_gemm.hpp"
#include "common/matrix.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/panel_cache.hpp"
#include "scoped_knobs.hpp"
#include "threading/persistent_pool.hpp"

using ag::index_t;
using ag::Matrix;

namespace {

ag::BlockSizes pinned_blocks() {
  ag::BlockSizes bs;
  bs.mr = 8;
  bs.nr = 6;
  bs.kc = 32;
  bs.mc = 32;
  bs.nc = 48;
  return bs;
}

// Batch entries writing `cs`: entry i accumulates op(as[i]) op(bs_in[i])
// into cs[i], transposing both operands when trans[i] is set (entries
// past the end of `trans` transpose neither).
std::vector<ag::GemmBatchEntry> make_entries(const std::vector<Matrix<double>>& as,
                                             const std::vector<Matrix<double>>& bs_in,
                                             const std::vector<bool>& trans,
                                             std::vector<Matrix<double>>& cs) {
  std::vector<ag::GemmBatchEntry> entries;
  for (std::size_t i = 0; i < as.size(); ++i) {
    ag::GemmBatchEntry e;
    const bool t = i < trans.size() && trans[i];
    e.trans_a = e.trans_b = t ? ag::Trans::Trans : ag::Trans::NoTrans;
    e.m = cs[i].rows();
    e.n = cs[i].cols();
    e.k = t ? as[i].rows() : as[i].cols();
    e.alpha = 1.25;
    e.beta = 0.5;
    e.a = as[i].data();
    e.lda = as[i].ld();
    e.b = bs_in[i].data();
    e.ldb = bs_in[i].ld();
    e.c = cs[i].data();
    e.ldc = cs[i].ld();
    entries.push_back(e);
  }
  return entries;
}

// Concatenated raw result bytes of every C.
std::vector<double> result_bytes(const std::vector<Matrix<double>>& cs) {
  std::vector<double> out;
  for (const Matrix<double>& c : cs)
    for (index_t j = 0; j < c.cols(); ++j)
      out.insert(out.end(), c.data() + j * c.ld(), c.data() + j * c.ld() + c.rows());
  return out;
}

// One ragged batch into fresh copies of the c0s; returns the concatenated
// raw result bytes of every entry.
std::vector<double> run_batch_once(int threads, const std::vector<Matrix<double>>& as,
                                   const std::vector<Matrix<double>>& bs_in,
                                   const std::vector<Matrix<double>>& c0s,
                                   const std::vector<bool>& trans = {}) {
  ag::Context ctx(ag::KernelShape{8, 6}, threads);
  ctx.set_block_sizes(pinned_blocks());
  std::vector<Matrix<double>> cs(c0s.begin(), c0s.end());
  const std::vector<ag::GemmBatchEntry> entries = make_entries(as, bs_in, trans, cs);
  ag::dgemm_batch(ag::Layout::ColMajor, entries.data(),
                  static_cast<index_t>(entries.size()), ctx);
  return result_bytes(cs);
}

// The same entries, each through dgemm on a one-thread context with the
// same pinned blocks.
std::vector<double> run_dgemm_once(const std::vector<Matrix<double>>& as,
                                   const std::vector<Matrix<double>>& bs_in,
                                   const std::vector<Matrix<double>>& c0s,
                                   const std::vector<bool>& trans) {
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(pinned_blocks());
  std::vector<Matrix<double>> cs(c0s.begin(), c0s.end());
  for (const ag::GemmBatchEntry& e : make_entries(as, bs_in, trans, cs))
    ag::dgemm(ag::Layout::ColMajor, e.trans_a, e.trans_b, e.m, e.n, e.k, e.alpha, e.a, e.lda,
              e.b, e.ldb, e.beta, e.c, e.ldc, ctx);
  return result_bytes(cs);
}

TEST(BatchStress, BitwiseDeterministicAcrossRunsAndThreadCounts) {
  // m=200 with mc=32 gives 7 row blocks (capped at 8 tickets); the other
  // entries land on 2 tickets and 1 ticket. The last entry transposes both
  // operands over 3 row blocks, so a ticket's transposed A offset is
  // pinned too.
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  std::vector<Matrix<double>> as, bs_in, c0s;
  const index_t shapes[4][3] = {{200, 96, 80}, {64, 48, 40}, {24, 18, 16}, {88, 30, 50}};
  const std::vector<bool> trans = {false, false, false, true};
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t seed = 9000 + 10 * static_cast<std::uint64_t>(i);
    const index_t m = shapes[i][0], n = shapes[i][1], k = shapes[i][2];
    as.push_back(trans[i] ? ag::random_matrix(k, m, seed) : ag::random_matrix(m, k, seed));
    bs_in.push_back(trans[i] ? ag::random_matrix(n, k, seed + 1)
                             : ag::random_matrix(k, n, seed + 1));
    c0s.push_back(ag::random_matrix(m, n, seed + 2));
  }

  const std::vector<double> golden = run_batch_once(1, as, bs_in, c0s, trans);
  const std::size_t bytes = golden.size() * sizeof(double);
  // Each entry's tickets run the one-rank dgemm driver over row slices
  // that start on mc boundaries, so the batch reproduces one-thread dgemm
  // bit for bit.
  const std::vector<double> serial = run_dgemm_once(as, bs_in, c0s, trans);
  ASSERT_EQ(serial.size(), golden.size());
  ASSERT_EQ(std::memcmp(serial.data(), golden.data(), bytes), 0)
      << "batch differs from one-thread dgemm";
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<double> got = run_batch_once(threads, as, bs_in, c0s, trans);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), bytes), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(BatchStress, DeterministicWithPanelCacheOnAndOff) {
  // A cache-served panel and a privately packed panel hold identical
  // bytes (same pack_b), so toggling the cache must not change results.
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  std::vector<Matrix<double>> as, bs_in, c0s;
  as.push_back(ag::random_matrix(96, 64, 9100));
  bs_in.push_back(ag::random_matrix(64, 72, 9101));
  c0s.push_back(ag::random_matrix(96, 72, 9102));

  std::vector<double> with_cache, without_cache;
  {
    agtest::ScopedKnob cache_on(ag::Knob::kPanelCacheMb, 64);
    with_cache = run_batch_once(4, as, bs_in, c0s);
  }
  {
    agtest::ScopedKnob cache_off(ag::Knob::kPanelCacheMb, 0);
    without_cache = run_batch_once(4, as, bs_in, c0s);
  }
  ASSERT_EQ(with_cache.size(), without_cache.size());
  ASSERT_EQ(std::memcmp(with_cache.data(), without_cache.data(),
                        with_cache.size() * sizeof(double)),
            0);
}

struct CallerProblem {
  std::vector<Matrix<double>> as, bs_in, c0s, cs;
};

// kCallers host threads, each submitting kBatchesPerCaller batches of
// kEntriesPerBatch entries to the shared persistent pool. Every caller
// helps execute (and may steal siblings' tickets); all results must match
// the oracle. Run under TSan for the data-race proof.
void stress_many_callers(int pool_threads, std::int64_t spin_us) {
  constexpr int kCallers = 4;
  constexpr int kBatchesPerCaller = 5;
  constexpr int kEntriesPerBatch = 4;
  agtest::ScopedKnob spin(ag::Knob::kSpinUs, spin_us);
  // Threshold 50 puts this battery's entries on both sides of it, so
  // small and blocked tickets race on the one pool.
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, 50);

  std::vector<CallerProblem> problems(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    for (int e = 0; e < kEntriesPerBatch; ++e) {
      const index_t m = 48 + 16 * e, n = 40 + 8 * t, k = 36 + 4 * e;
      const std::uint64_t seed = 20000 + 100 * static_cast<std::uint64_t>(t) +
                                 10 * static_cast<std::uint64_t>(e);
      problems[t].as.push_back(ag::random_matrix(m, k, seed));
      problems[t].bs_in.push_back(ag::random_matrix(k, n, seed + 1));
      problems[t].c0s.push_back(ag::random_matrix(m, n, seed + 2));
      problems[t].cs.emplace_back(0, 0);
    }
  }

  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&problems, t, pool_threads] {
      CallerProblem& p = problems[static_cast<std::size_t>(t)];
      ag::Context ctx(ag::KernelShape{8, 6}, pool_threads);
      for (int rep = 0; rep < kBatchesPerCaller; ++rep) {
        std::vector<Matrix<double>> cs;
        std::vector<ag::GemmBatchEntry> entries;
        for (std::size_t e = 0; e < p.c0s.size(); ++e) cs.emplace_back(p.c0s[e]);
        for (std::size_t e = 0; e < p.c0s.size(); ++e) {
          ag::GemmBatchEntry ge;
          ge.m = p.c0s[e].rows();
          ge.n = p.c0s[e].cols();
          ge.k = p.as[e].cols();
          ge.alpha = 1.0;
          ge.beta = 1.0;
          ge.a = p.as[e].data();
          ge.lda = p.as[e].ld();
          ge.b = p.bs_in[e].data();
          ge.ldb = p.bs_in[e].ld();
          ge.c = cs[e].data();
          ge.ldc = cs[e].ld();
          entries.push_back(ge);
        }
        ag::dgemm_batch(ag::Layout::ColMajor, entries.data(),
                        static_cast<index_t>(entries.size()), ctx);
        for (std::size_t e = 0; e < cs.size(); ++e) p.cs[e] = std::move(cs[e]);
      }
    });
  }
  for (std::thread& c : callers) c.join();

  for (const CallerProblem& p : problems) {
    for (std::size_t e = 0; e < p.cs.size(); ++e) {
      Matrix<double> expect(p.c0s[e]);
      ag::blocked_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans,
                        expect.rows(), expect.cols(), p.as[e].cols(), 1.0, p.as[e].data(),
                        p.as[e].ld(), p.bs_in[e].data(), p.bs_in[e].ld(), 1.0, expect.data(),
                        expect.ld());
      const auto cmp = ag::compare_gemm_result(p.cs[e].view(), expect.view(), p.as[e].cols(),
                                               1.0, 1.0, 1.0, 1.0, 1.0);
      EXPECT_TRUE(cmp.ok) << "entry " << e << " diff " << cmp.max_diff;
    }
  }
}

TEST(BatchStress, ManyCallersOnePersistentPool) { stress_many_callers(3, ag::spin_wait_us()); }

TEST(BatchStress, ManyCallersImmediateBlockMode) {
  // ARMGEMM_SPIN_US=0: workers and waiters go straight to the futex path,
  // exercising the condvar handoffs that spinning normally hides.
  stress_many_callers(2, 0);
}

TEST(BatchStress, ManyCallersSharedBWithCacheChurn) {
  // Every caller's batch shares one B, and concurrent batch calls bump
  // the cache epoch under each other: in-flight panels must stay alive
  // (shared_ptr) while the map churns. Correctness is the assertion;
  // TSan proves the publication ordering.
  constexpr int kCallers = 4;
  constexpr int kReps = 6;
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  agtest::ScopedKnob cache_on(ag::Knob::kPanelCacheMb, 8);
  const index_t m = 96, n = 72, k = 64;
  const auto shared_b = ag::random_matrix(k, n, 30000);

  std::vector<CallerProblem> problems(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    const std::uint64_t seed = 30010 + 10 * static_cast<std::uint64_t>(t);
    problems[t].as.push_back(ag::random_matrix(m, k, seed));
    problems[t].c0s.push_back(ag::random_matrix(m, n, seed + 1));
    problems[t].cs.emplace_back(0, 0);
  }

  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&problems, &shared_b, t] {
      CallerProblem& p = problems[static_cast<std::size_t>(t)];
      ag::Context ctx(ag::KernelShape{8, 6}, 2);
      ctx.set_block_sizes(pinned_blocks());
      for (int rep = 0; rep < kReps; ++rep) {
        Matrix<double> c(p.c0s[0]);
        ag::GemmBatchEntry e;
        e.m = c.rows();
        e.n = c.cols();
        e.k = p.as[0].cols();
        e.alpha = 1.0;
        e.beta = 0.0;
        e.a = p.as[0].data();
        e.lda = p.as[0].ld();
        e.b = shared_b.data();
        e.ldb = shared_b.ld();
        e.c = c.data();
        e.ldc = c.ld();
        ag::dgemm_batch(ag::Layout::ColMajor, &e, 1, ctx);
        p.cs[0] = std::move(c);
      }
    });
  }
  for (std::thread& c : callers) c.join();

  for (const CallerProblem& p : problems) {
    Matrix<double> expect(p.c0s[0]);
    ag::blocked_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k,
                      1.0, p.as[0].data(), p.as[0].ld(), shared_b.data(), shared_b.ld(), 0.0,
                      expect.data(), expect.ld());
    const auto cmp =
        ag::compare_gemm_result(p.cs[0].view(), expect.view(), k, 1.0, 1.0, 1.0, 0.0, 1.0);
    EXPECT_TRUE(cmp.ok) << "diff " << cmp.max_diff;
  }
}

TEST(BatchStress, TinyQueueDepthForcesInlineOverflow) {
  // Depth 1 makes nearly every ticket overflow and run inline on its
  // caller while workers drain the one queued ticket: both execution
  // paths race on the same submission's completion count.
  agtest::ScopedKnob depth(ag::Knob::kQueueDepth, 1);
  stress_many_callers(2, ag::spin_wait_us());
}

}  // namespace
