// Bitwise determinism of the parallel driver: dynamic block scheduling
// means which rank computes which (mc x nr-group) block is timing-
// dependent, but every mr x nr register tile accumulates over the full kc
// of each panel in a fixed kk order, so C must come out bit-identical on
// every run and at every thread count — including the 2-D column-group
// fallback. Block sizes are pinned because the auto-tuned defaults vary
// with the thread count, which would legitimately change the result.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/gemm.hpp"
#include "core/sgemm.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;

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

// One dgemm into a fresh copy of c0; returns the raw result bytes.
std::vector<double> run_once(int threads, index_t m, index_t n, index_t k,
                             const ag::Matrix<double>& a, const ag::Matrix<double>& b,
                             const ag::Matrix<double>& c0) {
  ag::Context ctx(ag::KernelShape{8, 6}, threads);
  ctx.set_block_sizes(pinned_blocks());
  ag::Matrix<double> c(c0);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25,
            a.data(), a.ld(), b.data(), b.ld(), 0.5, c.data(), c.ld(), ctx);
  std::vector<double> out(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    std::memcpy(out.data() + j * m, c.data() + j * c.ld(),
                static_cast<std::size_t>(m) * sizeof(double));
  return out;
}

TEST(GemmDeterminism, BitwiseIdenticalAcrossRunsAndThreadCounts) {
  // m=200 with mc=32 gives ceil(200/32)=7 row blocks: 8 threads exercises
  // the 2-D column-group fallback, 2 and 4 stay 1-D dynamic.
  const index_t m = 200, n = 96, k = 80;
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);  // keep every run on the packed path
  const auto a = ag::random_matrix(m, k, 101);
  const auto b = ag::random_matrix(k, n, 102);
  const auto c0 = ag::random_matrix(m, n, 103);

  const std::vector<double> golden = run_once(1, m, n, k, a, b, c0);
  const std::size_t bytes = golden.size() * sizeof(double);
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<double> got = run_once(threads, m, n, k, a, b, c0);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), bytes), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(GemmDeterminism, SmallFastPathIsDeterministicToo) {
  // The fast path is serial, so this mostly guards against accidental
  // future parallelization changing the accumulation order.
  const index_t m = 24, n = 20, k = 16;
  agtest::ScopedKnob fast_path(ag::Knob::kSmallMnk, 32);
  const auto a = ag::random_matrix(m, k, 201);
  const auto b = ag::random_matrix(k, n, 202);
  const auto c0 = ag::random_matrix(m, n, 203);
  const std::vector<double> golden = run_once(1, m, n, k, a, b, c0);
  for (int threads : {1, 4}) {
    for (int rep = 0; rep < 5; ++rep) {
      const std::vector<double> got = run_once(threads, m, n, k, a, b, c0);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), golden.size() * sizeof(double)), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// sgemm runs the same driver, so the same argument holds in float.
TEST(GemmDeterminism, SgemmBitwiseIdenticalAcrossRunsAndThreadCounts) {
  // m=200 with mc=32 gives 7 row blocks: 8 threads take the 2-D
  // column-group fallback.
  const index_t m = 200, n = 96, k = 80;
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  ag::Xoshiro256 rng(301);
  const auto fill = [&](index_t count) {
    std::vector<float> v(static_cast<std::size_t>(count));
    for (float& x : v) x = static_cast<float>(rng.uniform(-1, 1));
    return v;
  };
  const std::vector<float> a = fill(m * k), b = fill(k * n), c0 = fill(m * n);
  const auto run = [&](int threads) {
    ag::SgemmOptions opts;
    opts.threads = threads;
    opts.kc = 32;
    opts.mc = 32;
    opts.nc = 48;
    std::vector<float> c = c0;
    ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25f,
              a.data(), m, b.data(), k, 0.5f, c.data(), m, opts);
    return c;
  };

  const std::vector<float> golden = run(1);
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<float> got = run(threads);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), golden.size() * sizeof(float)), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

}  // namespace
