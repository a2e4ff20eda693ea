// Parallel dgemm (Figure 9): results identical to serial for every thread
// count, including ragged partitions, small matrices (fewer blocks than
// threads), and the paper's threaded block sizes. Every call here is at
// most the default ARMGEMM_SMALL_MNK^3, so each test switches the small
// path off to check the blocked driver.
#include <gtest/gtest.h>

#include "blas/compare.hpp"
#include "blas/reference_gemm.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "scoped_knobs.hpp"

using ag::Context;
using ag::index_t;
using ag::Layout;
using ag::Matrix;
using ag::Trans;

namespace {

void check_parallel(const Context& ctx, index_t m, index_t n, index_t k) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  auto a = ag::random_matrix(m, k, 201);
  auto b = ag::random_matrix(k, n, 202);
  auto c = ag::random_matrix(m, n, 203);
  Matrix<double> c_ref(c);

  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0, a.data(), a.ld(),
            b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
  ag::blocked_dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0, a.data(),
                    a.ld(), b.data(), b.ld(), 1.0, c_ref.data(), c_ref.ld());

  const auto cmp = ag::compare_gemm_result(c.view(), c_ref.view(), k, 1.0, 1.0, 1.0, 1.0, 1.0);
  EXPECT_TRUE(cmp.ok) << "m=" << m << " n=" << n << " k=" << k << " threads=" << ctx.threads()
                      << " diff=" << cmp.max_diff << " bound=" << cmp.bound;
}

void check_parallel(index_t m, index_t n, index_t k, int threads) {
  check_parallel(Context(ag::KernelShape{8, 6}, threads), m, n, k);
}

class ThreadCounts : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCounts, MediumSquare) { check_parallel(160, 120, 90, GetParam()); }
TEST_P(ThreadCounts, RaggedShape) { check_parallel(157, 111, 73, GetParam()); }
TEST_P(ThreadCounts, TallSkinny) { check_parallel(400, 24, 36, GetParam()); }
TEST_P(ThreadCounts, ShortWide) { check_parallel(24, 400, 36, GetParam()); }

INSTANTIATE_TEST_SUITE_P(Counts, ThreadCounts, ::testing::Values(2, 3, 4, 8));

TEST(ParallelGemm, MoreThreadsThanBlocks) {
  // M smaller than one mc block: most threads have no work.
  check_parallel(16, 64, 32, 8);
  check_parallel(9, 30, 20, 8);
}

TEST(ParallelGemm, SingleRowFallsBackToSerial) {
  check_parallel(1, 50, 50, 4);
}

TEST(ParallelGemm, MultiplePanelsExerciseBarriers) {
  // k and n larger than kc/nc force several pack-B phases with barriers.
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{4, 4}, 4);
  ag::BlockSizes bs;
  bs.mr = 4;
  bs.nr = 4;
  bs.kc = 8;
  bs.mc = 8;
  bs.nc = 12;
  ctx.set_block_sizes(bs);

  auto a = ag::random_matrix(50, 40, 301);
  auto b = ag::random_matrix(40, 45, 302);
  auto c = ag::random_matrix(50, 45, 303);
  Matrix<double> c_ref(c);
  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 50, 45, 40, 1.0, a.data(), a.ld(),
            b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
  ag::blocked_dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 50, 45, 40, 1.0, a.data(),
                    a.ld(), b.data(), b.ld(), 1.0, c_ref.data(), c_ref.ld());
  const auto cmp = ag::compare_gemm_result(c.view(), c_ref.view(), 40, 1.0, 1.0, 1.0, 1.0, 1.0);
  EXPECT_TRUE(cmp.ok) << cmp.max_diff;
}

TEST(ParallelGemm, PaperEightThreadBlockSizes) {
  Context ctx(ag::KernelShape{8, 6}, 8);
  ctx.set_block_sizes(ag::paper_block_sizes({8, 6}, 8));
  check_parallel(ctx, 300, 200, 100);
}

TEST(ParallelGemm, TransposesUnderThreads) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{8, 6}, 4);
  auto a = ag::random_matrix(60, 80, 401);  // op(A) = A^T: 80 x 60
  auto b = ag::random_matrix(50, 60, 402);  // op(B) = B^T: 60 x 50... sizes below
  auto c = ag::random_matrix(80, 50, 403);
  Matrix<double> c_ref(c);
  ag::dgemm(Layout::ColMajor, Trans::Trans, Trans::Trans, 80, 50, 60, 1.0, a.data(), a.ld(),
            b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
  ag::blocked_dgemm(Layout::ColMajor, Trans::Trans, Trans::Trans, 80, 50, 60, 1.0, a.data(),
                    a.ld(), b.data(), b.ld(), 1.0, c_ref.data(), c_ref.ld());
  const auto cmp = ag::compare_gemm_result(c.view(), c_ref.view(), 60, 1.0, 1.0, 1.0, 1.0, 1.0);
  EXPECT_TRUE(cmp.ok) << cmp.max_diff;
}

TEST(ParallelGemm, RepeatedCallsReusePool) {
  // The context's pool persists across calls; repeated use must stay correct.
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{8, 6}, 4);
  for (int rep = 0; rep < 5; ++rep) {
    auto a = ag::random_matrix(64, 32, 500 + rep);
    auto b = ag::random_matrix(32, 48, 600 + rep);
    auto c = ag::random_matrix(64, 48, 700 + rep);
    Matrix<double> c_ref(c);
    ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 64, 48, 32, 1.0, a.data(),
              a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
    ag::blocked_dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 64, 48, 32, 1.0,
                      a.data(), a.ld(), b.data(), b.ld(), 0.0, c_ref.data(), c_ref.ld());
    EXPECT_TRUE(
        ag::compare_gemm_result(c.view(), c_ref.view(), 32, 1.0, 1.0, 1.0, 0.0, 1.0).ok)
        << "rep " << rep;
  }
}

}  // namespace
