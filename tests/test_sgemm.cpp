// Single-precision GEMM tests: float kernels against a scalar rank-kc
// reference, the full sgemm against reference_sgemm over size sweeps,
// transposes, alpha/beta, threads, and row-major, plus argument checks,
// beta == 0 on every driver path and reuse of the caller's pool.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#endif

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/sgemm.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "scoped_knobs.hpp"
#include "strided_check.hpp"

using ag::index_t;

namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  ag::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

TEST(SKernels, AllMatchScalarReference) {
  for (const auto& k : ag::all_smicrokernels()) {
    const int mr = k.mr, nr = k.nr;
    for (const index_t kc : {1, 7, 173}) {
      ag::AlignedBuffer<float> a(static_cast<std::size_t>(mr * kc));
      ag::AlignedBuffer<float> b(static_cast<std::size_t>(nr * kc));
      ag::Xoshiro256 rng(3);
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.uniform(-1, 1));
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(rng.uniform(-1, 1));
      for (const float beta : {0.0f, 1.0f, -0.5f}) {
        for (const index_t ldc : {index_t{mr}, index_t{mr + 5}}) {
          // beta == 0 must overwrite the tile without reading it: a NaN
          // seed would survive any read.
          const float seed = beta == 0.0f ? std::numeric_limits<float>::quiet_NaN() : 0.5f;
          std::vector<float> c1(static_cast<std::size_t>(ldc * nr), seed), c2 = c1;
          k.fn(kc, 2.0f, a.data(), b.data(), beta, c1.data(), ldc);
          for (int j = 0; j < nr; ++j)
            for (int i = 0; i < mr; ++i) {
              float& cij = c2[static_cast<std::size_t>(i + j * ldc)];
              cij = beta == 0.0f ? 0.0f : beta * cij;
            }
          for (index_t p = 0; p < kc; ++p)
            for (int j = 0; j < nr; ++j)
              for (int i = 0; i < mr; ++i)
                c2[static_cast<std::size_t>(i + j * ldc)] +=
                    2.0f * a[static_cast<std::size_t>(p * mr + i)] *
                    b[static_cast<std::size_t>(p * nr + j)];
          // Note c2 applies alpha per-term; kernel applies it once at the
          // end — same result up to float rounding. Padding rows past mr
          // keep their seed, NaN included.
          for (std::size_t i = 0; i < c1.size(); ++i) {
            if (std::isnan(c2[i]))
              ASSERT_TRUE(std::isnan(c1[i])) << k.name << " wrote padding elem " << i;
            else
              ASSERT_NEAR(c1[i], c2[i], 1e-3f)
                  << k.name << " kc=" << kc << " beta=" << beta << " ldc=" << ldc << " elem "
                  << i;
          }
        }
      }
    }
  }
}

// The strided entry of each float kernel stores exactly the bits of its
// packed entry (the f32 half of AllKernels.StridedEntryMatchesPackedBitwise).
TEST(SKernels, StridedEntryMatchesPackedBitwise) {
  for (const auto& k : ag::all_smicrokernels()) {
    ASSERT_NE(k.strided, nullptr) << k.name;
    agtest::check_strided_matches_packed<float>(k.name, k.mr, k.nr, k.fn, k.strided);
  }
}

void check_sgemm(index_t m, index_t n, index_t k, int threads, float alpha = 1.0f,
                 float beta = 1.0f, ag::Trans ta = ag::Trans::NoTrans,
                 ag::Trans tb = ag::Trans::NoTrans) {
  const index_t a_rows = ta == ag::Trans::NoTrans ? m : k;
  const index_t a_cols = ta == ag::Trans::NoTrans ? k : m;
  const index_t b_rows = tb == ag::Trans::NoTrans ? k : n;
  const index_t b_cols = tb == ag::Trans::NoTrans ? n : k;
  auto a = random_floats(static_cast<std::size_t>(a_rows * a_cols), 11);
  auto b = random_floats(static_cast<std::size_t>(b_rows * b_cols), 12);
  auto c = random_floats(static_cast<std::size_t>(m * n), 13);
  auto c_ref = c;

  ag::SgemmOptions opts;
  opts.threads = threads;
  ag::sgemm(ag::Layout::ColMajor, ta, tb, m, n, k, alpha, a.data(),
            std::max<index_t>(1, a_rows), b.data(), std::max<index_t>(1, b_rows), beta,
            c.data(), std::max<index_t>(1, m), opts);
  ag::reference_sgemm(ag::Layout::ColMajor, ta, tb, m, n, k, alpha, a.data(),
                      std::max<index_t>(1, a_rows), b.data(), std::max<index_t>(1, b_rows),
                      beta, c_ref.data(), std::max<index_t>(1, m));

  const float tol = 1e-5f * static_cast<float>(std::max<index_t>(k, 1)) *
                    (std::abs(alpha) + std::abs(beta) + 1);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], tol) << "m=" << m << " n=" << n << " k=" << k
                                     << " t=" << threads << " elem " << i;
}

class SgemmSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(SgemmSizes, SquareSerial) {
  // Threshold 50 puts sizes up to 33 on the small path, the rest on the
  // blocked path.
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, 50);
  check_sgemm(GetParam(), GetParam(), GetParam(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SgemmSizes,
                         ::testing::Values(1, 3, 15, 16, 17, 33, 64, 100, 129, 200));

TEST(Sgemm, Threads) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  check_sgemm(200, 150, 80, 2);
  check_sgemm(333, 90, 61, 4);
}

TEST(Sgemm, Transposes) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  for (ag::Trans ta : {ag::Trans::NoTrans, ag::Trans::Trans})
    for (ag::Trans tb : {ag::Trans::NoTrans, ag::Trans::Trans})
      check_sgemm(70, 55, 40, 1, 1.0f, 1.0f, ta, tb);
}

TEST(Sgemm, AlphaBeta) {
  for (float alpha : {0.0f, 2.0f, -1.0f})
    for (float beta : {0.0f, 1.0f, 0.5f}) check_sgemm(40, 30, 25, 1, alpha, beta);
}

TEST(Sgemm, RowMajor) {
  const float a[] = {1, 2, 3, 4};  // row-major 2x2
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  ag::sgemm(ag::Layout::RowMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2, 1.0f, a, 2,
            b, 2, 0.0f, c, 2);
  EXPECT_FLOAT_EQ(c[0], 1 * 5 + 2 * 7);
  EXPECT_FLOAT_EQ(c[1], 1 * 6 + 2 * 8);
  EXPECT_FLOAT_EQ(c[2], 3 * 5 + 4 * 7);
  EXPECT_FLOAT_EQ(c[3], 3 * 6 + 4 * 8);
}

TEST(Sgemm, CustomBlockSizes) {
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  ag::SgemmOptions opts;
  opts.kc = 16;
  opts.mc = 32;
  opts.nc = 24;
  auto a = random_floats(100 * 90, 21);
  auto b = random_floats(90 * 80, 22);
  auto c = random_floats(100 * 80, 23);
  auto c_ref = c;
  ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 100, 80, 90, 1.0f,
            a.data(), 100, b.data(), 90, 1.0f, c.data(), 100, opts);
  ag::reference_sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 100, 80,
                      90, 1.0f, a.data(), 100, b.data(), 90, 1.0f, c_ref.data(), 100);
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], c_ref[i], 1e-3f);
}

TEST(Sgemm, Validates) {
  float x[4] = {};
  EXPECT_THROW(ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2,
                         1.0f, x, 1, x, 2, 0.0f, x, 2),
               ag::InvalidArgument);
  // Null operands throw like dgemm's instead of being dereferenced.
  EXPECT_THROW(ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2,
                         1.0f, nullptr, 2, x, 2, 0.0f, x, 2),
               ag::InvalidArgument);
  EXPECT_THROW(ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2,
                         1.0f, x, 2, nullptr, 2, 0.0f, x, 2),
               ag::InvalidArgument);
  EXPECT_THROW(ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2,
                         1.0f, x, 2, x, 2, 0.0f, nullptr, 2),
               ag::InvalidArgument);
  EXPECT_THROW(ag::sgemm(ag::Layout::RowMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2,
                         1.0f, nullptr, 2, x, 2, 0.0f, x, 2),
               ag::InvalidArgument);
}

// beta == 0 must overwrite C without reading it, so NaN garbage never
// survives — on the no-pack small nest, the one-rank blocked driver and
// the parallel driver alike.
TEST(Sgemm, BetaZeroOverwritesNaNOnEveryPath) {
  struct Path {
    const char* name;
    std::int64_t small_mnk;
    int threads;
    index_t m, n, k;
  };
  const Path paths[] = {{"small", 32, 1, 20, 18, 12},
                        {"serial", 0, 1, 70, 50, 40},
                        {"parallel", 0, 4, 300, 50, 40}};
  for (const Path& p : paths) {
    agtest::ScopedKnob small(ag::Knob::kSmallMnk, p.small_mnk);
    const auto a = random_floats(static_cast<std::size_t>(p.m * p.k), 31);
    const auto b = random_floats(static_cast<std::size_t>(p.k * p.n), 32);
    std::vector<float> c(static_cast<std::size_t>(p.m * p.n),
                         std::numeric_limits<float>::quiet_NaN());
    std::vector<float> want(c.size(), 0.0f);
    ag::SgemmOptions opts;
    opts.threads = p.threads;
    ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, p.m, p.n, p.k, 1.0f,
              a.data(), p.m, b.data(), p.k, 0.0f, c.data(), p.m, opts);
    ag::reference_sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, p.m, p.n,
                        p.k, 1.0f, a.data(), p.m, b.data(), p.k, 0.0f, want.data(), p.m);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_FALSE(std::isnan(c[i])) << p.name << " elem " << i;
      ASSERT_NEAR(c[i], want[i], 1e-3f) << p.name << " elem " << i;
    }
  }
}

#if defined(__linux__)
// Thread ids of this process's fork/join pool workers ("armgemm-w<rank>").
std::set<std::string> pool_worker_tids() {
  std::set<std::string> tids;
  DIR* task = opendir("/proc/self/task");
  if (task == nullptr) return tids;
  while (dirent* e = readdir(task)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    if (std::getline(comm, name) && name.rfind("armgemm-w", 0) == 0) tids.insert(e->d_name);
  }
  closedir(task);
  return tids;
}

// sgemm keeps one pool per caller thread: parallel calls reuse its workers
// instead of starting and joining new ones every call.
TEST(Sgemm, ReusesWorkersAcrossCalls) {
  agtest::ScopedKnob blocked(ag::Knob::kSmallMnk, 0);
  const index_t m = 128, n = 64, k = 32;
  const auto a = random_floats(static_cast<std::size_t>(m * k), 41);
  const auto b = random_floats(static_cast<std::size_t>(k * n), 42);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  ag::SgemmOptions opts;
  opts.threads = 4;
  const auto call = [&] {
    ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0f,
              a.data(), m, b.data(), k, 0.0f, c.data(), m, opts);
  };
  call();
  const std::set<std::string> first = pool_worker_tids();
  ASSERT_FALSE(first.empty()) << "a threads=4 sgemm left no pool workers behind";
  for (int i = 0; i < 200; ++i) call();
  EXPECT_EQ(pool_worker_tids(), first);
}
#endif

}  // namespace
