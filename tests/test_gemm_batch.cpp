// Correctness of the batched driver (core/gemm_batch.hpp) against the
// reference oracle: uniform, ragged and strided batches, alpha/beta edge
// cases (including beta = 0 over NaN garbage), degenerate batch sizes,
// row-major normalization and shared-B panel reuse. Every test runs the
// whole batch through the persistent pool, so these double as smoke tests
// of the scheduler's submit/help/complete path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "blas/compare.hpp"
#include "blas/gemm_types.hpp"
#include "blas/reference_gemm.hpp"
#include "capi/armgemm_cblas.h"
#include "common/matrix.hpp"
#include "core/context.hpp"
#include "core/gemm_batch.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;
using ag::Matrix;

namespace {

struct Problem {
  Matrix<double> a, b, c, c0;
  ag::GemmBatchEntry entry;
};

Problem make_problem(ag::Trans ta, ag::Trans tb, index_t m, index_t n, index_t k,
                     double alpha, double beta, std::uint64_t seed) {
  Problem p{ag::random_matrix(ta == ag::Trans::NoTrans ? m : k,
                              ta == ag::Trans::NoTrans ? k : m, seed),
            ag::random_matrix(tb == ag::Trans::NoTrans ? k : n,
                              tb == ag::Trans::NoTrans ? n : k, seed + 1),
            ag::random_matrix(m, n, seed + 2), Matrix<double>(0, 0), {}};
  p.c0 = p.c;
  p.entry.trans_a = ta;
  p.entry.trans_b = tb;
  p.entry.m = m;
  p.entry.n = n;
  p.entry.k = k;
  p.entry.alpha = alpha;
  p.entry.beta = beta;
  // Degenerate operands (k = 0) have zero stored rows; BLAS still
  // requires ld >= 1.
  p.entry.a = p.a.data();
  p.entry.lda = std::max<index_t>(1, p.a.ld());
  p.entry.b = p.b.data();
  p.entry.ldb = std::max<index_t>(1, p.b.ld());
  p.entry.c = p.c.data();
  p.entry.ldc = p.c.ld();
  return p;
}

void verify(const Problem& p) {
  const ag::GemmBatchEntry& e = p.entry;
  Matrix<double> expect(p.c0);
  ag::reference_dgemm(ag::Layout::ColMajor, e.trans_a, e.trans_b, e.m, e.n, e.k, e.alpha,
                      e.a, e.lda, e.b, e.ldb, e.beta, expect.data(), expect.ld());
  const auto cmp = ag::compare_gemm_result(p.c.view(), expect.view(), e.k, e.alpha, 1.0, 1.0,
                                           e.beta, 1.0);
  EXPECT_TRUE(cmp.ok) << e.m << "x" << e.n << "x" << e.k << " alpha=" << e.alpha
                      << " beta=" << e.beta << " diff " << cmp.max_diff;
}

void run_batch(std::vector<Problem>& problems, int threads = 3) {
  std::vector<ag::GemmBatchEntry> entries;
  for (const Problem& p : problems) entries.push_back(p.entry);
  ag::Context ctx(ag::KernelShape{8, 6}, threads);
  ag::dgemm_batch(ag::Layout::ColMajor, entries.data(),
                  static_cast<index_t>(entries.size()), ctx);
}

TEST(GemmBatch, UniformBatchMatchesReference) {
  std::vector<Problem> problems;
  for (int i = 0; i < 8; ++i)
    problems.push_back(make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 96, 80, 64, 1.0,
                                    1.0, 100 + 10 * static_cast<std::uint64_t>(i)));
  run_batch(problems);
  for (const Problem& p : problems) verify(p);
}

TEST(GemmBatch, RaggedShapesTransposesAndScalars) {
  // Mixed per-entry shapes, transposes and scalars in one submission:
  // small fast-path entries, blocked entries and scale-only entries all
  // mixed in one ticket queue.
  std::vector<Problem> problems;
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 150, 90, 70, 1.25, 0.5, 500));
  problems.push_back(make_problem(ag::Trans::Trans, ag::Trans::NoTrans, 64, 64, 64, -0.75,
                                  1.0, 510));
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::Trans, 33, 17, 129, 2.0, -1.0, 520));
  problems.push_back(
      make_problem(ag::Trans::Trans, ag::Trans::Trans, 8, 8, 8, 1.0, 0.0, 530));
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 1, 200, 40, 1.0, 2.0, 540));
  problems.push_back(  // alpha = 0: beta-scale only
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 60, 60, 60, 0.0, 0.25, 550));
  problems.push_back(  // k = 0: beta-scale only
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 40, 30, 0, 1.0, 0.75, 560));
  run_batch(problems);
  for (const Problem& p : problems) verify(p);
}

TEST(GemmBatch, BetaZeroOverwritesNanGarbage) {
  // beta = 0 must overwrite C, never multiply it: NaN/Inf garbage in the
  // output buffer must not survive, on the small, blocked and scale paths.
  std::vector<Problem> problems;
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 120, 72, 48, 1.0, 0.0, 600));
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 12, 10, 8, 1.0, 0.0, 610));
  problems.push_back(  // alpha = 0 && beta = 0: pure overwrite with zeros
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 50, 40, 30, 0.0, 0.0, 620));
  for (Problem& p : problems) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (index_t j = 0; j < p.c.cols(); ++j)
      for (index_t i = 0; i < p.c.rows(); ++i)
        p.c(i, j) = (i + j) % 3 ? nan : std::numeric_limits<double>::infinity();
    p.c0 = p.c;
  }
  run_batch(problems);
  for (const Problem& p : problems) {
    for (index_t j = 0; j < p.c.cols(); ++j)
      for (index_t i = 0; i < p.c.rows(); ++i)
        ASSERT_TRUE(std::isfinite(p.c(i, j))) << "NaN survived at " << i << "," << j;
    verify(p);
  }
}

TEST(GemmBatch, DegenerateBatchSizes) {
  // count = 0 is a no-op (entries pointer may even be null).
  ag::Context ctx(ag::KernelShape{8, 6}, 2);
  ag::dgemm_batch(ag::Layout::ColMajor, nullptr, 0, ctx);

  // count = 1 behaves exactly like one dgemm.
  std::vector<Problem> one;
  one.push_back(make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 100, 60, 52, 1.5, 0.5,
                             700));
  run_batch(one);
  verify(one[0]);

  // m = 0 / n = 0 entries are skipped without touching C.
  std::vector<Problem> degenerate;
  degenerate.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 30, 20, 10, 1.0, 0.5, 710));
  degenerate[0].entry.m = 0;
  run_batch(degenerate);
  for (index_t j = 0; j < degenerate[0].c.cols(); ++j)
    for (index_t i = 0; i < degenerate[0].c.rows(); ++i)
      ASSERT_EQ(degenerate[0].c(i, j), degenerate[0].c0(i, j));
}

TEST(GemmBatch, HugeBatchOfTinyEntries) {
  // 256 tiny entries: all take the no-pack fast path; exercises queue
  // round-robin across shards and (under a small ARMGEMM_QUEUE_DEPTH)
  // the inline-overflow backpressure path.
  agtest::ScopedKnob depth(ag::Knob::kQueueDepth, 16);
  std::vector<Problem> problems;
  for (int i = 0; i < 256; ++i)
    problems.push_back(make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 8, 6, 4, 1.0,
                                    1.0, 1000 + 10 * static_cast<std::uint64_t>(i)));
  run_batch(problems, 4);
  for (const Problem& p : problems) verify(p);
}

TEST(GemmBatch, RowMajorNormalization) {
  // Row-major entries go through the swap normalization; check against
  // the row-major reference directly. Matrix<> is column-major, so build
  // the row-major operands as flat vectors with explicit leading dims.
  const index_t m = 70, n = 50, k = 40;
  std::vector<double> a(static_cast<std::size_t>(m) * k), b(static_cast<std::size_t>(k) * n),
      c(static_cast<std::size_t>(m) * n), c0;
  ag::Xoshiro256 rng(4242);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (double& v : c) v = rng.uniform(-1.0, 1.0);
  c0 = c;

  ag::GemmBatchEntry e;
  e.m = m;
  e.n = n;
  e.k = k;
  e.alpha = 1.5;
  e.beta = -0.5;
  e.a = a.data();
  e.lda = k;  // row-major: lda is the row length of A (m x k)
  e.b = b.data();
  e.ldb = n;
  e.c = c.data();
  e.ldc = n;
  ag::Context ctx(ag::KernelShape{8, 6}, 2);
  ag::dgemm_batch(ag::Layout::RowMajor, &e, 1, ctx);

  ag::reference_dgemm(ag::Layout::RowMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k,
                      e.alpha, a.data(), e.lda, b.data(), e.ldb, e.beta, c0.data(), e.ldc);
  const ag::MatrixView<const double> got(c.data(), n, m, n);  // col-major reinterpretation
  const ag::MatrixView<const double> want(c0.data(), n, m, n);
  const auto cmp = ag::compare_gemm_result(got, want, k, e.alpha, 1.0, 1.0, e.beta, 1.0);
  EXPECT_TRUE(cmp.ok) << "row-major diff " << cmp.max_diff;
}

TEST(GemmBatch, SharedBAcrossEntries) {
  // The serving pattern: one B (weights) against many A panels. All
  // entries share B bytes, so blocked tickets reuse cached panels.
  const index_t m = 64, n = 96, k = 72;
  const auto b = ag::random_matrix(k, n, 2000);
  std::vector<Problem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
                                    0.0, 2010 + 10 * static_cast<std::uint64_t>(i)));
    problems.back().entry.b = b.data();
    problems.back().entry.ldb = b.ld();
  }
  run_batch(problems, 4);
  for (Problem& p : problems) {
    p.b = Matrix<double>(b);  // point verify() at the shared B
    p.entry.b = p.b.data();
    p.entry.ldb = p.b.ld();
    verify(p);
  }
}

TEST(GemmBatch, StridedBatchMatchesLoopOfEntries) {
  const index_t m = 48, n = 40, k = 36, count = 10;
  const index_t stride_a = m * k, stride_b = 0, stride_c = m * n;  // shared B
  std::vector<double> a(static_cast<std::size_t>(stride_a * count));
  std::vector<double> b(static_cast<std::size_t>(k) * n);
  std::vector<double> c(static_cast<std::size_t>(stride_c * count)), c0;
  ag::Xoshiro256 rng(3000);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (double& v : c) v = rng.uniform(-1.0, 1.0);
  c0 = c;

  ag::Context ctx(ag::KernelShape{8, 6}, 3);
  ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n,
                          k, 1.25, a.data(), m, stride_a, b.data(), k, stride_b, 0.5,
                          c.data(), m, stride_c, count, ctx);

  for (index_t i = 0; i < count; ++i) {
    ag::reference_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n,
                        k, 1.25, a.data() + i * stride_a, m, b.data(), k, 0.5,
                        c0.data() + i * stride_c, m);
    const ag::MatrixView<const double> got(c.data() + i * stride_c, m, n, m);
    const ag::MatrixView<const double> want(c0.data() + i * stride_c, m, n, m);
    const auto cmp = ag::compare_gemm_result(got, want, k, 1.25, 1.0, 1.0, 0.5, 1.0);
    EXPECT_TRUE(cmp.ok) << "entry " << i << " diff " << cmp.max_diff;
  }
}

TEST(GemmBatch, StridedBatchRejectsOverlappingC) {
  const index_t m = 16, n = 16, k = 16;
  std::vector<double> a(m * k, 1.0), b(k * n, 1.0), c(m * n * 2, 0.0);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  EXPECT_THROW(ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans,
                                       ag::Trans::NoTrans, m, n, k, 1.0, a.data(), m, 0,
                                       b.data(), k, 0, 0.0, c.data(), m, m * n - 1, 2, ctx),
               ag::InvalidArgument);
}

TEST(GemmBatch, BadEntryFailsWholeBatchBeforeTouchingC) {
  // Entry 1 has lda < m; validation runs before any work is enqueued, so
  // entry 0's (valid) C must still be untouched after the throw.
  std::vector<Problem> problems;
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 32, 24, 16, 1.0, 0.0, 4000));
  problems.push_back(
      make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, 32, 24, 16, 1.0, 0.0, 4010));
  problems[1].entry.lda = 1;  // invalid: lda < m for NoTrans
  std::vector<ag::GemmBatchEntry> entries{problems[0].entry, problems[1].entry};
  ag::Context ctx(ag::KernelShape{8, 6}, 2);
  EXPECT_THROW(ag::dgemm_batch(ag::Layout::ColMajor, entries.data(), 2, ctx),
               ag::InvalidArgument);
  for (index_t j = 0; j < problems[0].c.cols(); ++j)
    for (index_t i = 0; i < problems[0].c.rows(); ++i)
      ASSERT_EQ(problems[0].c(i, j), problems[0].c0(i, j));
}

TEST(GemmBatch, CapiBatchEntryPoints) {
  // armgemm_dgemm_batch and armgemm_dgemm_strided_batch round-trip the
  // CBLAS argument arrays into the same results as the C++ driver.
  const int threads_before = armgemm_get_num_threads();
  armgemm_set_num_threads(2);
  const index_t m = 40, n = 32, k = 24;
  std::vector<Problem> problems;
  for (int i = 0; i < 3; ++i)
    problems.push_back(make_problem(ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
                                    1.0, 5000 + 10 * static_cast<std::uint64_t>(i)));

  std::vector<CBLAS_TRANSPOSE> ta(3, CblasNoTrans), tb(3, CblasNoTrans);
  std::vector<int64_t> ms(3, m), ns(3, n), ks(3, k);
  std::vector<double> alphas(3, 1.0), betas(3, 1.0);
  std::vector<const double*> as, bs;
  std::vector<double*> cs;
  std::vector<int64_t> ldas, ldbs, ldcs;
  for (Problem& p : problems) {
    as.push_back(p.a.data());
    ldas.push_back(p.a.ld());
    bs.push_back(p.b.data());
    ldbs.push_back(p.b.ld());
    cs.push_back(p.c.data());
    ldcs.push_back(p.c.ld());
  }
  armgemm_dgemm_batch(CblasColMajor, ta.data(), tb.data(), ms.data(), ns.data(), ks.data(),
                      alphas.data(), as.data(), ldas.data(), bs.data(), ldbs.data(),
                      betas.data(), cs.data(), ldcs.data(), 3);
  for (const Problem& p : problems) verify(p);
  armgemm_set_num_threads(threads_before);
}

TEST(GemmBatch, QueueKnobRoundTrip) {
  const std::string depth_before = ag::knob_text(ag::Knob::kQueueDepth);
  const std::string mb_before = ag::knob_text(ag::Knob::kPanelCacheMb);
  armgemm_config_set("ARMGEMM_QUEUE_DEPTH", "7");
  EXPECT_EQ(ag::queue_depth(), 7);
  armgemm_config_set("ARMGEMM_QUEUE_DEPTH", "0");  // clamped to 1
  EXPECT_EQ(ag::queue_depth(), 1);
  armgemm_config_set("ARMGEMM_PANEL_CACHE_MB", "3");
  EXPECT_EQ(ag::panel_cache_mb(), 3);
  armgemm_config_set("ARMGEMM_PANEL_CACHE_MB", "-5");  // clamped to 0 (off)
  EXPECT_EQ(ag::panel_cache_mb(), 0);
  armgemm_config_set("ARMGEMM_QUEUE_DEPTH", depth_before.c_str());
  armgemm_config_set("ARMGEMM_PANEL_CACHE_MB", mb_before.c_str());
}

}  // namespace
