// Edge cases of the blocking arithmetic in obs/expected.cpp: shapes where
// k is smaller than kc, m/n are not multiples of mr/nr, and thread
// partitions leave remainder chunks. Each prediction is checked two ways:
// by hand against the Figure 2 loop structure, and against the counters a
// real dgemm call records.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "obs/expected.hpp"
#include "obs/gemm_stats.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;

namespace {

ag::BlockSizes tiny_blocks() {
  ag::BlockSizes bs;
  bs.mr = 8;
  bs.nr = 6;
  bs.kc = 8;
  bs.mc = 16;
  bs.nc = 12;
  return bs;
}

void run_dgemm(const ag::Context& ctx, index_t m, index_t n, index_t k) {
  auto a = ag::random_matrix(m, k, 1);
  auto b = ag::random_matrix(k, n, 2);
  auto c = ag::random_matrix(m, n, 3);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
            a.data(), std::max<index_t>(a.ld(), 1), b.data(), std::max<index_t>(b.ld(), 1),
            1.0, c.data(), std::max<index_t>(c.ld(), 1), ctx);
}

void expect_measured_matches(index_t m, index_t n, index_t k, int threads,
                             bool check_pack_b_calls) {
  const ag::BlockSizes bs = tiny_blocks();
  ag::Context ctx(ag::KernelShape{8, 6}, threads);
  ctx.set_block_sizes(bs);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, m, n, k);
  const auto got = stats.totals();
  const auto want = ag::obs::expected_gemm_counters(m, n, k, bs);
  std::ostringstream label;
  label << m << "x" << n << "x" << k << " threads=" << threads;

  // The serial model is exact whenever the parallel driver stays in 1-D
  // row-block scheduling (each mc block claimed whole, exactly once).
  // When m has fewer mc blocks than ranks the scheduler splits each row
  // block into column groups: GEBP calls multiply by the group count and
  // A-packing may be repeated per group (which rank claims which group is
  // timing-dependent), so only scheduling-independent invariants hold.
  const index_t row_blocks = (m + bs.mc - 1) / bs.mc;
  const bool exact_rows = threads == 1 || row_blocks >= threads;
  if (exact_rows) {
    EXPECT_EQ(got.pack_a_calls, want.pack_a_calls) << label.str();
    EXPECT_EQ(got.gebp_calls, want.gebp_calls) << label.str();
    EXPECT_EQ(got.pack_a_bytes, want.pack_a_bytes) << label.str();
  } else {
    EXPECT_GE(got.pack_a_calls, want.pack_a_calls) << label.str();
    EXPECT_LE(got.pack_a_calls, want.pack_a_calls * static_cast<std::uint64_t>(2 * threads))
        << label.str();
    EXPECT_GE(got.gebp_calls, want.gebp_calls) << label.str();
    EXPECT_LE(got.gebp_calls, want.gebp_calls * static_cast<std::uint64_t>(2 * threads))
        << label.str();
    EXPECT_GE(got.pack_a_bytes, want.pack_a_bytes) << label.str();
  }
  if (check_pack_b_calls) {
    EXPECT_EQ(got.pack_b_calls, want.pack_b_calls) << label.str();
  }
  EXPECT_EQ(got.kernel_calls, want.kernel_calls) << label.str();
  EXPECT_EQ(got.pack_b_bytes, want.pack_b_bytes) << label.str();
  EXPECT_EQ(got.c_bytes, want.c_bytes) << label.str();
  EXPECT_DOUBLE_EQ(got.flops, want.flops) << label.str();
}

TEST(ObsExpected, KSmallerThanKcByHand) {
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  // 16x12x3 with kc=8: a single (jj, kk, ii) iteration whose packed
  // buffers are sized by the actual kc'=3, not the configured kc.
  const auto c = ag::obs::expected_gemm_counters(16, 12, 3, tiny_blocks());
  EXPECT_EQ(c.pack_b_calls, 1u);
  EXPECT_EQ(c.pack_a_calls, 1u);
  EXPECT_EQ(c.gebp_calls, 1u);
  EXPECT_EQ(c.kernel_calls, 4u);                    // 2 a-slivers x 2 b-slivers
  EXPECT_EQ(c.pack_a_bytes, 2u * 8u * 3u * 8u);     // slivers * mr * kc' * sizeof
  EXPECT_EQ(c.pack_b_bytes, 2u * 6u * 3u * 8u);
  EXPECT_EQ(c.c_bytes, 2u * 16u * 12u * 8u);
  EXPECT_DOUBLE_EQ(c.flops, 2.0 * 16 * 12 * 3);
}

TEST(ObsExpected, EdgeTilesRoundUpToFullSlivers) {
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  // 9x7x8: neither dimension is a multiple of mr/nr, so packing rounds
  // each up to whole slivers (zero-padded), while C traffic stays exact.
  const auto c = ag::obs::expected_gemm_counters(9, 7, 8, tiny_blocks());
  EXPECT_EQ(c.pack_a_calls, 1u);
  EXPECT_EQ(c.pack_b_calls, 1u);
  EXPECT_EQ(c.kernel_calls, 4u);                    // ceil(9/8) * ceil(7/6)
  EXPECT_EQ(c.pack_a_bytes, 2u * 8u * 8u * 8u);     // rounded to 2 slivers of mr=8
  EXPECT_EQ(c.pack_b_bytes, 2u * 6u * 8u * 8u);     // rounded to 2 slivers of nr=6
  EXPECT_EQ(c.c_bytes, 2u * 9u * 7u * 8u);          // C is never padded
}

TEST(ObsExpected, DegenerateShapes) {
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  const ag::BlockSizes bs = tiny_blocks();
  const auto empty_m = ag::obs::expected_gemm_counters(0, 4, 4, bs);
  EXPECT_EQ(empty_m.gemm_calls, 0u);
  EXPECT_DOUBLE_EQ(empty_m.flops, 0.0);

  // k == 0 is a valid call (pure beta-scale): recorded, but no packing,
  // no kernels, no flops.
  const auto zero_k = ag::obs::expected_gemm_counters(4, 4, 0, bs);
  EXPECT_EQ(zero_k.gemm_calls, 1u);
  EXPECT_EQ(zero_k.pack_a_calls, 0u);
  EXPECT_EQ(zero_k.pack_b_calls, 0u);
  EXPECT_EQ(zero_k.gebp_calls, 0u);
  EXPECT_DOUBLE_EQ(zero_k.flops, 0.0);

  const auto one = ag::obs::expected_gemm_counters(1, 1, 1, bs);
  EXPECT_EQ(one.kernel_calls, 1u);
  EXPECT_EQ(one.pack_a_bytes, 8u * 1u * 8u);  // one mr-sliver, kc'=1
  EXPECT_EQ(one.pack_b_bytes, 6u * 1u * 8u);
  EXPECT_DOUBLE_EQ(one.flops, 2.0);
}

TEST(ObsExpected, PackedBytesNeverUndercount) {
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  // Padding only ever rounds up: packed traffic >= the m*k / k*n words
  // actually consumed, with equality exactly on sliver-aligned shapes.
  const ag::BlockSizes bs = tiny_blocks();
  const index_t shapes[][3] = {{8, 6, 8}, {9, 7, 3}, {17, 13, 9}, {24, 18, 16}, {1, 40, 5}};
  for (const auto& s : shapes) {
    const auto c = ag::obs::expected_gemm_counters(s[0], s[1], s[2], bs);
    EXPECT_GE(c.pack_a_bytes, static_cast<std::uint64_t>(s[0] * s[2]) * 8u);
    EXPECT_GE(c.pack_b_bytes, static_cast<std::uint64_t>(s[2] * s[1]) * 8u);
    if (s[0] % bs.mr == 0 && s[1] % bs.nr == 0) {
      // Sliver-aligned: no padding. A is repacked once per B panel; B is
      // packed exactly once overall.
      const std::uint64_t n_panels =
          static_cast<std::uint64_t>((s[1] + bs.nc - 1) / bs.nc);
      EXPECT_EQ(c.pack_a_bytes, n_panels * static_cast<std::uint64_t>(s[0] * s[2]) * 8u);
      EXPECT_EQ(c.pack_b_bytes, static_cast<std::uint64_t>(s[2] * s[1]) * 8u);
    }
  }
}

TEST(ObsExpected, MeasuredSerialMatchesOnEdgeShapes) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  // k < kc; m/n off-sliver; k off-kc; everything off at once.
  expect_measured_matches(16, 12, 3, 1, /*check_pack_b_calls=*/true);
  expect_measured_matches(9, 7, 8, 1, /*check_pack_b_calls=*/true);
  expect_measured_matches(16, 12, 11, 1, /*check_pack_b_calls=*/true);
  expect_measured_matches(19, 14, 10, 1, /*check_pack_b_calls=*/true);
}

TEST(ObsExpected, MeasuredParallelMatchesWithPartitionRemainders) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  // partition_range splits M mc-aligned; these shapes give one rank a
  // remainder chunk (17 -> 16+1) or no work at all (15 < mc with 2 ranks
  // still produces the same global chunk set). pack_b_calls is per-rank
  // in the parallel driver, so it is excluded from the exact comparison.
  for (int threads : {2, 3}) {
    expect_measured_matches(17, 13, 9, threads, /*check_pack_b_calls=*/false);
    expect_measured_matches(15, 12, 8, threads, /*check_pack_b_calls=*/false);
    expect_measured_matches(48, 18, 16, threads, /*check_pack_b_calls=*/false);
    expect_measured_matches(33, 25, 20, threads, /*check_pack_b_calls=*/false);
  }
}

TEST(ObsExpected, SerialAndParallelPredictionsShareTotals) {
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  // The prediction itself is thread-count independent: the parallel
  // driver performs the same packing and kernel work, just partitioned.
  const ag::BlockSizes bs = tiny_blocks();
  const auto c = ag::obs::expected_gemm_counters(40, 30, 20, bs);
  // ceil(40/16)=3 row chunks x ceil(30/12)=3 col panels x ceil(20/8)=3
  EXPECT_EQ(c.pack_b_calls, 3u * 3u);
  EXPECT_EQ(c.pack_a_calls, 3u * 3u * 3u);
  EXPECT_EQ(c.gebp_calls, 3u * 3u * 3u);
}

TEST(ObsExpected, SmallFastPathPredictsNoPackedTraffic) {
  // Under the default threshold the driver dispatches these shapes to the
  // no-pack fast path; the model must predict that, not the blocked nest.
  agtest::ScopedKnob fast_path(ag::Knob::kSmallMnk, 32);
  const auto c = ag::obs::expected_gemm_counters(16, 12, 8, tiny_blocks());
  EXPECT_EQ(c.gemm_calls, 1u);
  EXPECT_EQ(c.small_calls, 1u);
  EXPECT_EQ(c.pack_a_calls, 0u);
  EXPECT_EQ(c.pack_b_calls, 0u);
  EXPECT_EQ(c.gebp_calls, 0u);
  EXPECT_EQ(c.kernel_calls, 0u);
  EXPECT_EQ(c.pack_a_bytes, 0u);
  EXPECT_EQ(c.pack_b_bytes, 0u);
  EXPECT_DOUBLE_EQ(c.flops, 2.0 * 16 * 12 * 8);

  // Just past the threshold the packed path comes back.
  const auto big = ag::obs::expected_gemm_counters(64, 48, 32, tiny_blocks());
  EXPECT_EQ(big.small_calls, 0u);
  EXPECT_GT(big.gebp_calls, 0u);
}

TEST(ObsExpected, SmallFastPathMeasuredMatches) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  agtest::ScopedKnob fast_path(ag::Knob::kSmallMnk, 32);
  const ag::BlockSizes bs = tiny_blocks();
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(bs);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 16, 12, 8);
  const auto got = stats.totals();
  const auto want = ag::obs::expected_gemm_counters(16, 12, 8, bs);
  EXPECT_EQ(got.small_calls, want.small_calls);
  EXPECT_EQ(got.small_calls, 1u);
  EXPECT_EQ(got.pack_a_calls, 0u);
  EXPECT_EQ(got.pack_b_calls, 0u);
  EXPECT_EQ(got.gebp_calls, 0u);
  EXPECT_GT(got.small_seconds, 0.0);
  EXPECT_DOUBLE_EQ(got.flops, want.flops);
}

TEST(ObsExpected, FastPathThresholdBoundaryIsExact) {
  // m*n*k == T^3 is small; one more element pushes it over.
  agtest::ScopedKnob fast_path(ag::Knob::kSmallMnk, 32);
  EXPECT_TRUE(ag::use_small_gemm(32, 32, 32));
  EXPECT_TRUE(ag::use_small_gemm(1, 1, 32768));
  EXPECT_FALSE(ag::use_small_gemm(33, 32, 32));
  EXPECT_FALSE(ag::use_small_gemm(1, 1, 32769));
  EXPECT_FALSE(ag::use_small_gemm(0, 32, 32));  // degenerate: not "small"

  agtest::ScopedKnob off(ag::Knob::kSmallMnk, 0);
  EXPECT_FALSE(ag::use_small_gemm(1, 1, 1));
}

}  // namespace
