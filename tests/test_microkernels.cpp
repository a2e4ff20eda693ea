// Register-kernel tests: every registered microkernel (scalar and SIMD)
// computes C = beta * C + alpha * A_sliver * B_sliver like a reference
// rank-kc accumulation, for various kc values, alphas, betas (each
// epilogue branch) and ldc strides.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/avx2_kernels.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/neon_kernels.hpp"

using ag::AlignedBuffer;
using ag::index_t;
using ag::KernelShape;
using ag::Microkernel;

namespace {

// Reference rank-kc update on packed slivers; beta == 0 never reads C.
void reference_update(int mr, int nr, index_t kc, double alpha, double beta, const double* a,
                      const double* b, double* c, index_t ldc) {
  for (int j = 0; j < nr; ++j)
    for (int i = 0; i < mr; ++i) c[i + j * ldc] = beta == 0.0 ? 0.0 : beta * c[i + j * ldc];
  for (index_t p = 0; p < kc; ++p)
    for (int j = 0; j < nr; ++j)
      for (int i = 0; i < mr; ++i)
        c[i + j * ldc] += alpha * a[p * mr + i] * b[p * nr + j];
}

struct KernelCase {
  std::string name;
  index_t kc;
  double alpha;
  index_t ldc_extra;
};

void run_case(const Microkernel& k, index_t kc, double alpha, index_t ldc_extra,
              double beta = 1.0) {
  const int mr = k.shape.mr, nr = k.shape.nr;
  const index_t ldc = mr + ldc_extra;
  ag::Xoshiro256 rng(99);
  AlignedBuffer<double> a(static_cast<std::size_t>(mr * kc));
  AlignedBuffer<double> b(static_cast<std::size_t>(nr * kc));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
  std::vector<double> c1(static_cast<std::size_t>(ldc * nr));
  // beta == 0 must overwrite the tile without reading it: seed NaN, which
  // any read would carry into the result.
  for (auto& v : c1)
    v = beta == 0.0 ? std::numeric_limits<double>::quiet_NaN() : rng.uniform(-1, 1);
  std::vector<double> c2 = c1;

  k.fn(kc, alpha, a.data(), b.data(), beta, c1.data(), ldc);
  reference_update(mr, nr, kc, alpha, beta, a.data(), b.data(), c2.data(), ldc);

  const double tol = 1e-13 * static_cast<double>(kc ? kc : 1);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    // Padding rows past mr keep their seed, NaN included.
    if (std::isnan(c2[i]))
      ASSERT_TRUE(std::isnan(c1[i])) << k.name << " wrote padding elem " << i;
    else
      ASSERT_NEAR(c1[i], c2[i], tol)
          << k.name << " kc=" << kc << " beta=" << beta << " ldc=" << ldc << " elem " << i;
  }
}

class AllKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(AllKernels, MatchesReferenceVariousKc) {
  const Microkernel& k = ag::microkernel_by_name(GetParam());
  for (index_t kc : {1, 2, 3, 7, 64, 257})
    for (double beta : {0.0, 1.0, -0.5})
      for (index_t extra : {0, 5}) run_case(k, kc, 1.0, extra, beta);
}

TEST_P(AllKernels, AlphaScaling) {
  const Microkernel& k = ag::microkernel_by_name(GetParam());
  for (double alpha : {1.0, -1.0, 2.5, 0.0}) run_case(k, 16, alpha, 0);
}

TEST_P(AllKernels, StridedC) {
  const Microkernel& k = ag::microkernel_by_name(GetParam());
  for (index_t extra : {1, 5, 100}) run_case(k, 32, 1.0, extra);
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : ag::all_microkernels()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllKernels, ::testing::ValuesIn(kernel_names()));

TEST(Registry, ContainsPaperShapes) {
  for (KernelShape s : ag::paper_kernel_shapes()) {
    const Microkernel& k = ag::best_microkernel(s);
    EXPECT_EQ(k.shape, s);
    EXPECT_NE(k.fn, nullptr);
  }
}

TEST(Registry, BestPrefersSimd) {
  if (!ag::avx2_kernels_available() && !ag::neon_kernels_available())
    GTEST_SKIP() << "no SIMD kernels in this build";
  const Microkernel& k = ag::best_microkernel({8, 6});
  EXPECT_NE(k.isa, ag::KernelIsa::Scalar);
}

TEST(Registry, UnknownNamesThrow) {
  EXPECT_THROW(ag::microkernel_by_name("no_such_kernel"), ag::InvalidArgument);
  EXPECT_THROW(ag::best_microkernel({3, 9}), ag::InvalidArgument);
}

TEST(Registry, GammaValues) {
  EXPECT_NEAR((KernelShape{8, 6}.gamma()), 6.857, 1e-3);
  EXPECT_NEAR((KernelShape{4, 4}.gamma()), 4.0, 1e-12);
  EXPECT_EQ((KernelShape{8, 6}.to_string()), "8x6");
}

// SIMD and scalar kernels of the same shape must agree bit-for-bit up to
// FMA contraction differences (bounded, not exact).
TEST(Consistency, SimdMatchesScalar) {
  for (const auto& k : ag::all_microkernels()) {
    if (k.isa == ag::KernelIsa::Scalar) continue;
    const Microkernel& scalar = ag::microkernel_by_name(
        "generic_" + k.shape.to_string());
    const int mr = k.shape.mr, nr = k.shape.nr;
    const index_t kc = 128;
    ag::Xoshiro256 rng(5);
    AlignedBuffer<double> a(static_cast<std::size_t>(mr * kc));
    AlignedBuffer<double> b(static_cast<std::size_t>(nr * kc));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
    std::vector<double> c1(static_cast<std::size_t>(mr * nr), 0.0), c2 = c1;
    k.fn(kc, 1.0, a.data(), b.data(), 1.0, c1.data(), mr);
    scalar.fn(kc, 1.0, a.data(), b.data(), 1.0, c2.data(), mr);
    for (std::size_t i = 0; i < c1.size(); ++i)
      EXPECT_NEAR(c1[i], c2[i], 1e-12) << k.name << " elem " << i;
  }
}

}  // namespace
