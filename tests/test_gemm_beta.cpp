// Beta-fusion semantics tests. The drivers no longer pre-scale C with a
// standalone sweep: beta is threaded into GEBP and applied by the first
// k-panel's kernel call (overwrite for beta==0, accumulate for beta==1,
// fused scale otherwise). These tests pin the BLAS contract across every
// dispatch path — small fast path, serial blocked, parallel blocked —
// for beta in {0, 1, -0.5}, on shapes spanning multiple k-panels so the
// "beta only at kk==0 / pc==0" logic is actually exercised, and with C
// seeded with NaN/Inf under beta==0 (which must overwrite, not propagate).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

void check_beta_case(const Context& ctx, index_t m, index_t n, index_t k, double alpha,
                     double beta, const char* path) {
  auto a = ag::random_matrix(m, k, 41);
  auto b = ag::random_matrix(k, n, 42);
  auto c = ag::random_matrix(m, n, 43);
  Matrix<double> c_ref(c);

  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, alpha, a.data(), a.ld(),
            b.data(), b.ld(), beta, c.data(), c.ld(), ctx);
  ag::reference_dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, alpha,
                      a.data(), a.ld(), b.data(), b.ld(), beta, c_ref.data(), c_ref.ld());

  const auto cmp = ag::compare_gemm_result(c.view(), c_ref.view(), k, alpha, 1.0, 1.0, beta, 1.0);
  EXPECT_TRUE(cmp.ok) << path << ": m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
                      << " beta=" << beta << " diff=" << cmp.max_diff
                      << " bound=" << cmp.bound;
}

// beta==0 must overwrite C without reading it: non-finite garbage in C
// (as left by uninitialized or previously-overflowed buffers) must not
// leak into the product. The oracle runs beta=0 on a finite C; both
// results must match and the output must be entirely finite.
void check_beta_zero_overwrites(const Context& ctx, index_t m, index_t n, index_t k,
                                const char* path) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto a = ag::random_matrix(m, k, 51);
  auto b = ag::random_matrix(k, n, 52);
  auto c = ag::random_matrix(m, n, 53);
  Matrix<double> c_ref(c);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) c(i, j) = (i + j) % 3 == 0 ? nan : ((i + j) % 3 == 1 ? inf : -inf);

  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0, a.data(), a.ld(),
            b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
  ag::reference_dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0, a.data(),
                      a.ld(), b.data(), b.ld(), 0.0, c_ref.data(), c_ref.ld());

  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      ASSERT_TRUE(std::isfinite(c(i, j)))
          << path << ": non-finite C(" << i << "," << j << ") survived beta=0";
  const auto cmp = ag::compare_gemm_result(c.view(), c_ref.view(), k, 1.0, 1.0, 1.0, 0.0, 1.0);
  EXPECT_TRUE(cmp.ok) << path << ": m=" << m << " n=" << n << " k=" << k
                      << " diff=" << cmp.max_diff << " bound=" << cmp.bound;
}

constexpr double kBetas[] = {0.0, 1.0, -0.5};

TEST(GemmBeta, SmallFastPath) {
  agtest::ScopedKnob force_small(ag::Knob::kSmallMnk, 1'000'000'000);
  Context ctx(ag::KernelShape{8, 6}, 1);
  for (double beta : kBetas) {
    check_beta_case(ctx, 24, 20, 16, 1.0, beta, "small");
    check_beta_case(ctx, 13, 7, 9, 2.5, beta, "small");
  }
  check_beta_zero_overwrites(ctx, 24, 20, 16, "small");
}

TEST(GemmBeta, SerialBlockedSinglePanel) {
  agtest::ScopedKnob force_blocked(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{8, 6}, 1);
  for (double beta : kBetas) {
    check_beta_case(ctx, 65, 47, 41, 1.0, beta, "serial");
    check_beta_case(ctx, 33, 29, 27, -1.5, beta, "serial");
  }
  check_beta_zero_overwrites(ctx, 65, 47, 41, "serial");
}

TEST(GemmBeta, SerialBlockedMultiKPanel) {
  // k beyond kc forces several GEBP calls per C panel: only the first may
  // apply beta, the rest must accumulate with beta=1.
  agtest::ScopedKnob force_blocked(ag::Knob::kSmallMnk, 0);
  Context ctx(ag::KernelShape{8, 6}, 1);
  const index_t k = ctx.block_sizes().kc * 2 + 37;
  for (double beta : kBetas) check_beta_case(ctx, 64, 48, k, 1.0, beta, "serial multi-k");
  check_beta_zero_overwrites(ctx, 64, 48, k, "serial multi-k");
}

TEST(GemmBeta, ParallelBlocked) {
  agtest::ScopedKnob force_blocked(ag::Knob::kSmallMnk, 0);
  agtest::ScopedKnob no_spin(ag::Knob::kSpinUs, 0);
  Context ctx(ag::KernelShape{8, 6}, 4);
  const index_t k = ctx.block_sizes().kc + 29;  // at least two pc panels
  for (double beta : kBetas) {
    check_beta_case(ctx, 96, 80, 64, 1.0, beta, "parallel");
    check_beta_case(ctx, 70, 54, k, 0.5, beta, "parallel multi-k");
  }
  check_beta_zero_overwrites(ctx, 96, 80, k, "parallel");
}

}  // namespace
