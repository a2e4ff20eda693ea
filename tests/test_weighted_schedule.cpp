// Heterogeneity-weighted ticket partitioning: proportional_spans()
// apportionment arithmetic, the invariance of the block grid under
// weighting, and the bitwise-determinism contract of the parallel driver
// when an emulated big.LITTLE topology is active — weighting may only
// change WHO claims WHICH ticket, never what any ticket computes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "core/schedule.hpp"
#include "scoped_knobs.hpp"
#include "threading/thread_pool.hpp"

using ag::index_t;
using ag::PanelSchedule;

namespace {

// Every span sequence must tile [0, total) contiguously in rank order.
void expect_exact_cover(const std::vector<PanelSchedule::TicketSpan>& spans,
                        index_t total) {
  index_t at = 0;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(spans[r].begin, at);
    EXPECT_LE(spans[r].begin, spans[r].end);
    at = spans[r].end;
  }
  EXPECT_EQ(at, total);
}

TEST(ProportionalSpans, SizesTrackWeights) {
  const auto spans = PanelSchedule::proportional_spans(100, {2.0, 1.0, 1.0});
  ASSERT_EQ(spans.size(), 3u);
  expect_exact_cover(spans, 100);
  EXPECT_EQ(spans[0].size(), 50);
  EXPECT_EQ(spans[1].size(), 25);
  EXPECT_EQ(spans[2].size(), 25);
}

TEST(ProportionalSpans, LargestRemainderBreaksTiesToLowerRanks) {
  // 10 tickets over 3 equal weights: floor shares 3+3+3, the leftover
  // ticket goes to the lowest rank.
  const auto spans = PanelSchedule::proportional_spans(10, {1.0, 1.0, 1.0});
  expect_exact_cover(spans, 10);
  EXPECT_EQ(spans[0].size(), 4);
  EXPECT_EQ(spans[1].size(), 3);
  EXPECT_EQ(spans[2].size(), 3);
}

TEST(ProportionalSpans, ZeroWeightRankGetsAnEmptySpan) {
  const auto spans = PanelSchedule::proportional_spans(99, {2.0, 0.0, 1.0});
  ASSERT_EQ(spans.size(), 3u);
  expect_exact_cover(spans, 99);
  EXPECT_EQ(spans[1].size(), 0);
  EXPECT_EQ(spans[0].size(), 66);
  EXPECT_EQ(spans[2].size(), 33);
}

TEST(ProportionalSpans, DegenerateWeightsReduceToEqualPartition) {
  // All-equal and all-zero weights must both reproduce the unweighted
  // schedule bit-for-bit: partition_range(total, n, r, 1).
  for (const std::vector<double> weights :
       {std::vector<double>{1.0, 1.0, 1.0, 1.0}, std::vector<double>{0.0, 0.0, 0.0, 0.0},
        std::vector<double>{0.7, 0.7, 0.7, 0.7}}) {
    for (index_t total : {0, 1, 3, 4, 7, 64, 1000}) {
      SCOPED_TRACE(total);
      const auto spans = PanelSchedule::proportional_spans(total, weights);
      ASSERT_EQ(spans.size(), weights.size());
      expect_exact_cover(spans, total);
      for (int r = 0; r < 4; ++r) {
        SCOPED_TRACE(r);
        const ag::Range want = ag::partition_range(total, 4, r, 1);
        EXPECT_EQ(spans[static_cast<std::size_t>(r)].begin, want.begin);
        EXPECT_EQ(spans[static_cast<std::size_t>(r)].end, want.end);
      }
    }
  }
}

TEST(ProportionalSpans, ExtremeRatiosStillCoverEveryTicket) {
  for (index_t total : {1, 2, 5, 17, 101}) {
    SCOPED_TRACE(total);
    expect_exact_cover(PanelSchedule::proportional_spans(total, {1000.0, 1.0}), total);
    expect_exact_cover(PanelSchedule::proportional_spans(total, {1e-6, 1.0, 1e-6}),
                       total);
  }
}

TEST(ProportionalSpans, DeterministicForGivenInputs) {
  const std::vector<double> w = {1.0, 0.83, 0.83, 0.41};
  const auto a = PanelSchedule::proportional_spans(137, w);
  const auto b = PanelSchedule::proportional_spans(137, w);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].begin, b[r].begin);
    EXPECT_EQ(a[r].end, b[r].end);
  }
}

TEST(WeightedSchedule, BlockGridIsInvariantUnderTopology) {
  // The determinism contract rests on the grid being a function of
  // (m, nc, mc, nr, nthreads) only. Build the same PanelSchedule with and
  // without an asymmetric topology active: identical tickets and blocks,
  // all (mc, nr)-aligned.
  const index_t m = 200, nc = 96, mc = 32;
  const int nr = 6, nthreads = 4;
  PanelSchedule flat(m, nc, mc, nr, nthreads);
  std::vector<ag::GemmBlock> blocks;
  for (index_t t = 0; t < flat.total_blocks(); ++t) blocks.push_back(flat.block(t));

  agtest::ScopedCpuClasses topo("2x2.0,2x1.0");
  PanelSchedule skewed(m, nc, mc, nr, nthreads);
  ASSERT_EQ(skewed.total_blocks(), flat.total_blocks());
  for (index_t t = 0; t < skewed.total_blocks(); ++t) {
    SCOPED_TRACE(t);
    const ag::GemmBlock b = skewed.block(t);
    EXPECT_EQ(b.ii, blocks[static_cast<std::size_t>(t)].ii);
    EXPECT_EQ(b.mc, blocks[static_cast<std::size_t>(t)].mc);
    EXPECT_EQ(b.jb, blocks[static_cast<std::size_t>(t)].jb);
    EXPECT_EQ(b.nb, blocks[static_cast<std::size_t>(t)].nb);
    EXPECT_EQ(b.ii % mc, 0);
    EXPECT_EQ(b.jb % nr, 0);
  }
}

ag::BlockSizes pinned_blocks() {
  ag::BlockSizes bs;
  bs.mr = 8;
  bs.nr = 6;
  bs.kc = 32;
  bs.mc = 32;
  bs.nc = 48;
  return bs;
}

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

TEST(WeightedSchedule, BitwiseDeterministicOnEmulatedBigLittle) {
  // The full driver under an emulated 2+2 big.LITTLE at 2:1, with
  // weighted claiming on: every thread count and every rep must match
  // the serial result bit for bit (same grid, same per-tile accumulation
  // order; weighting only changed the claim order).
  const index_t m = 200, n = 96, k = 80;
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  agtest::ScopedCpuClasses topo("2x2.0,2x1.0");
  agtest::ScopedKnob weighted(ag::Knob::kWeightedSchedule, true);
  const auto a = ag::random_matrix(m, k, 301);
  const auto b = ag::random_matrix(k, n, 302);
  const auto c0 = ag::random_matrix(m, n, 303);

  const std::vector<double> golden = run_once(1, m, n, k, a, b, c0);
  const std::size_t bytes = golden.size() * sizeof(double);
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 10; ++rep) {
      const std::vector<double> got = run_once(threads, m, n, k, a, b, c0);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), bytes), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }

  // And switching weighting off changes nothing about the value either.
  agtest::ScopedKnob unweighted(ag::Knob::kWeightedSchedule, false);
  const std::vector<double> plain = run_once(4, m, n, k, a, b, c0);
  ASSERT_EQ(std::memcmp(plain.data(), golden.data(), bytes), 0);
}

}  // namespace
