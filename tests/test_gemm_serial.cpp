// Serial end-to-end dgemm tests against the reference oracle: size sweeps
// across blocking boundaries, all transpose/layout combinations,
// alpha/beta semantics, strided outputs, and every kernel shape.
#include <gtest/gtest.h>

#include <cmath>

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

void check_case(const Context& ctx, index_t m, index_t n, index_t k, double alpha, double beta,
                Trans ta = Trans::NoTrans, Trans tb = Trans::NoTrans, index_t ld_extra = 0) {
  const index_t a_rows = (ta == Trans::NoTrans ? m : k) + ld_extra;
  const index_t b_rows = (tb == Trans::NoTrans ? k : n) + ld_extra;
  auto a = ag::random_matrix(ta == Trans::NoTrans ? m : k, ta == Trans::NoTrans ? k : m, 101,
                             a_rows);
  auto b = ag::random_matrix(tb == Trans::NoTrans ? k : n, tb == Trans::NoTrans ? n : k, 102,
                             b_rows);
  auto c = ag::random_matrix(m, n, 103, m + ld_extra);
  Matrix<double> c_ref(c);

  ag::dgemm(Layout::ColMajor, ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
            c.data(), c.ld(), ctx);
  ag::blocked_dgemm(Layout::ColMajor, ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(),
                    b.ld(), beta, c_ref.data(), c_ref.ld());

  const auto cmp = ag::compare_gemm_result(c.view(), c_ref.view(), k, alpha, 1.0, 1.0, beta, 1.0);
  EXPECT_TRUE(cmp.ok) << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
                      << " beta=" << beta << " ta=" << ag::to_string(ta)
                      << " tb=" << ag::to_string(tb) << " diff=" << cmp.max_diff
                      << " bound=" << cmp.bound;
}

class SerialSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(SerialSizes, SquareMatchesReference) {
  // Threshold 50 puts sizes up to 48 on the small path, the rest on the
  // blocked path.
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, 50);
  Context ctx(ag::KernelShape{8, 6}, 1);
  const index_t s = GetParam();
  check_case(ctx, s, s, s, 1.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerialSizes,
                         ::testing::Values(1, 2, 5, 8, 13, 31, 48, 63, 64, 65, 96, 127, 200,
                                           256, 300));

TEST(SerialGemm, AllKernelShapes) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  for (ag::KernelShape s : ag::paper_kernel_shapes()) {
    Context ctx(s, 1);
    check_case(ctx, 97, 83, 59, 1.0, 1.0);
  }
}

TEST(SerialGemm, AllRegisteredKernels) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  for (const auto& k : ag::all_microkernels()) {
    Context ctx(ag::KernelShape{8, 6}, 1);
    ctx.set_kernel(k.name);
    check_case(ctx, 65, 47, 41, 1.0, 1.0);
  }
}

TEST(SerialGemm, TransposeCombos) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{8, 6}, 1);
  for (Trans ta : {Trans::NoTrans, Trans::Trans})
    for (Trans tb : {Trans::NoTrans, Trans::Trans}) check_case(ctx, 70, 54, 38, 1.0, 1.0, ta, tb);
}

TEST(SerialGemm, AlphaBetaMatrix) {
  Context ctx(ag::KernelShape{8, 6}, 1);
  for (double alpha : {0.0, 1.0, -1.0, 2.5})
    for (double beta : {0.0, 1.0, -0.5, 3.0}) check_case(ctx, 33, 29, 27, alpha, beta);
}

TEST(SerialGemm, StridedOperands) {
  Context ctx(ag::KernelShape{8, 6}, 1);
  check_case(ctx, 40, 30, 20, 1.0, 1.0, Trans::NoTrans, Trans::NoTrans, 13);
  check_case(ctx, 40, 30, 20, 1.0, 1.0, Trans::Trans, Trans::Trans, 13);
}

TEST(SerialGemm, RowMajor) {
  // Row-major 3x2 * 2x2.
  const double a[] = {1, 2, 3, 4, 5, 6};  // rows: (1,2),(3,4),(5,6)
  const double b[] = {7, 8, 9, 10};       // rows: (7,8),(9,10)
  double c[6] = {};
  Context ctx(ag::KernelShape{8, 6}, 1);
  ag::dgemm(Layout::RowMajor, Trans::NoTrans, Trans::NoTrans, 3, 2, 2, 1.0, a, 2, b, 2, 0.0, c,
            2, ctx);
  EXPECT_DOUBLE_EQ(c[0], 1 * 7 + 2 * 9);
  EXPECT_DOUBLE_EQ(c[1], 1 * 8 + 2 * 10);
  EXPECT_DOUBLE_EQ(c[4], 5 * 7 + 6 * 9);
  EXPECT_DOUBLE_EQ(c[5], 5 * 8 + 6 * 10);
}

TEST(SerialGemm, CrossesEveryBlockingBoundary) {
  // Small custom block sizes make a modest matrix exercise all layers.
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{4, 4}, 1);
  ag::BlockSizes bs;
  bs.mr = 4;
  bs.nr = 4;
  bs.kc = 8;
  bs.mc = 12;
  bs.nc = 16;
  ctx.set_block_sizes(bs);
  check_case(ctx, 50, 50, 50, 1.0, 1.0);
  check_case(ctx, 12, 16, 8, 1.0, 1.0);   // exactly one block each way
  check_case(ctx, 13, 17, 9, 1.0, 1.0);   // one past each boundary
}

TEST(SerialGemm, PaperBlockSizesWork) {
  Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(ag::paper_block_sizes({8, 6}, 1));
  check_case(ctx, 600, 80, 530, 1.0, 1.0);  // k > kc exercises layer 2
}

TEST(SerialGemm, KZeroBetaScalesOnly) {
  Context ctx;
  double c[4] = {1, 2, 3, 4};
  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 2, 2, 0, 1.0, nullptr, 2, nullptr,
            1, 2.0, c, 2, ctx);
  EXPECT_DOUBLE_EQ(c[0], 2);
  EXPECT_DOUBLE_EQ(c[3], 8);
}

TEST(SerialGemm, AlphaZeroSkipsProduct) {
  Context ctx;
  // A/B may hold garbage when alpha == 0 (they are never read).
  double c[1] = {5};
  const double junk = std::nan("");
  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 1, 1, 1, 0.0, &junk, 1, &junk, 1,
            3.0, c, 1, ctx);
  EXPECT_DOUBLE_EQ(c[0], 15);
}

TEST(SerialGemm, ValidatesLikeReference) {
  Context ctx;
  double x[4] = {};
  EXPECT_THROW(ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 2, 2, 2, 1.0, x, 1,
                         x, 2, 0.0, x, 2, ctx),
               ag::InvalidArgument);
}

}  // namespace
