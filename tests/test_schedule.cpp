// PanelSchedule property tests: the ticket space must tile each C panel
// exactly (full coverage, no overlap), keep blocks (mc, nr)-aligned except
// at the ragged edges, engage the 2-D column-group fallback exactly when
// there are fewer mc row blocks than ranks, and map sliver0 consistently
// onto the packed-B layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "core/schedule.hpp"

using ag::GemmBlock;
using ag::index_t;
using ag::PanelSchedule;

namespace {

// Marks every (row, col) cell claimed by some ticket and checks exact
// single coverage of the m x nc panel.
void expect_exact_tiling(const PanelSchedule& sched, index_t m, index_t nc) {
  std::vector<int> claims(static_cast<std::size_t>(m * nc), 0);
  for (index_t t = 0; t < sched.total_blocks(); ++t) {
    const GemmBlock b = sched.block(t);
    ASSERT_GE(b.ii, 0);
    ASSERT_GT(b.mc, 0);
    ASSERT_LE(b.ii + b.mc, m);
    ASSERT_GE(b.jb, 0);
    ASSERT_GT(b.nb, 0);
    ASSERT_LE(b.jb + b.nb, nc);
    for (index_t j = b.jb; j < b.jb + b.nb; ++j)
      for (index_t i = b.ii; i < b.ii + b.mc; ++i)
        claims[static_cast<std::size_t>(i + j * m)]++;
  }
  for (std::size_t cell = 0; cell < claims.size(); ++cell)
    ASSERT_EQ(claims[cell], 1) << "cell " << cell << " of " << m << "x" << nc;
}

TEST(PanelScheduleTest, TicketsTileThePanelExactly) {
  for (index_t m : {1, 7, 16, 17, 33, 100, 200}) {
    for (index_t nc : {1, 6, 12, 13, 48}) {
      for (int nthreads : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " nc=" << nc << " threads=" << nthreads);
        const PanelSchedule sched(m, nc, /*mc=*/16, /*nr=*/6, nthreads);
        expect_exact_tiling(sched, m, nc);
      }
    }
  }
}

TEST(PanelScheduleTest, OneDimensionalWhenRowBlocksCoverRanks) {
  // ceil(64/16) = 4 row blocks >= 4 ranks: the schedule must stay 1-D so
  // packing/GEBP counts remain identical to the serial driver.
  const PanelSchedule sched(64, 48, 16, 6, 4);
  EXPECT_EQ(sched.row_blocks(), 4);
  EXPECT_EQ(sched.col_groups(), 1);
  EXPECT_EQ(sched.total_blocks(), 4);
  for (index_t t = 0; t < 4; ++t) {
    const GemmBlock b = sched.block(t);
    EXPECT_EQ(b.ii, t * 16);
    EXPECT_EQ(b.mc, 16);
    EXPECT_EQ(b.jb, 0);
    EXPECT_EQ(b.nb, 48);  // full panel width
    EXPECT_EQ(b.sliver0, 0);
  }
}

TEST(PanelScheduleTest, TwoDimensionalFallbackWhenRowBlocksScarce) {
  // ceil(16/16) = 1 row block < 4 ranks: the nc width must split so every
  // rank can claim work.
  const PanelSchedule sched(16, 48, 16, 6, 4);
  EXPECT_EQ(sched.row_blocks(), 1);
  EXPECT_GT(sched.col_groups(), 1);
  EXPECT_GE(sched.total_blocks(), 4);  // at least one ticket per rank
  expect_exact_tiling(sched, 16, 48);
}

TEST(PanelScheduleTest, ColumnGroupsAreSliverAligned) {
  // Column-group starts must land on nr boundaries and sliver0 must equal
  // jb / nr, so `packed_b + sliver0 * kc * nr` addresses the group's
  // slivers in the sliver-major packed layout.
  for (index_t nc : {6, 11, 12, 13, 30, 48}) {
    for (int nthreads : {2, 4, 8}) {
      const PanelSchedule sched(8, nc, 16, 6, nthreads);
      for (index_t t = 0; t < sched.total_blocks(); ++t) {
        const GemmBlock b = sched.block(t);
        EXPECT_EQ(b.jb % 6, 0) << "nc=" << nc << " t=" << t;
        EXPECT_EQ(b.sliver0, b.jb / 6) << "nc=" << nc << " t=" << t;
        // Interior groups span whole slivers; only the last is ragged.
        if (b.jb + b.nb < nc) {
          EXPECT_EQ(b.nb % 6, 0) << "nc=" << nc << " t=" << t;
        }
      }
    }
  }
}

TEST(PanelScheduleTest, ConsecutiveTicketsShareRowBlocks) {
  // Tickets enumerate column groups within a row block first, so a rank
  // draining adjacent tickets reuses its packed A block.
  const PanelSchedule sched(32, 48, 16, 6, 8);  // 2 row blocks -> 2-D
  ASSERT_GT(sched.col_groups(), 1);
  for (index_t t = 0; t + 1 < sched.total_blocks(); ++t) {
    const GemmBlock a = sched.block(t);
    const GemmBlock b = sched.block(t + 1);
    if ((t + 1) % sched.col_groups() != 0) {
      EXPECT_EQ(a.ii, b.ii) << "t=" << t;  // same row block, next group
    } else {
      EXPECT_LT(a.ii, b.ii) << "t=" << t;  // advance to the next row block
    }
  }
}

TEST(PanelScheduleTest, MoreRanksThanSliversClampsGroups) {
  // nc=6 is a single sliver: it cannot split below one sliver, so the
  // schedule degenerates to 1 column group no matter how many ranks ask.
  const PanelSchedule sched(8, 6, 16, 6, 8);
  EXPECT_EQ(sched.col_groups(), 1);
  EXPECT_EQ(sched.total_blocks(), 1);
  const GemmBlock b = sched.block(0);
  EXPECT_EQ(b.nb, 6);
  EXPECT_EQ(b.mc, 8);
}

TEST(PanelScheduleTest, RaggedEdgesKeepExactSizes) {
  // m=17, nc=13: the last row block is 1 row, the last column group ends
  // at 13 (not rounded up) — C is never padded.
  const PanelSchedule sched(17, 13, 16, 6, 8);
  index_t max_row_end = 0, max_col_end = 0;
  for (index_t t = 0; t < sched.total_blocks(); ++t) {
    const GemmBlock b = sched.block(t);
    max_row_end = std::max(max_row_end, b.ii + b.mc);
    max_col_end = std::max(max_col_end, b.jb + b.nb);
  }
  EXPECT_EQ(max_row_end, 17);
  EXPECT_EQ(max_col_end, 13);
  expect_exact_tiling(sched, 17, 13);
}

TEST(PanelScheduleTest, InvalidArgumentsThrow) {
  EXPECT_THROW(PanelSchedule(0, 12, 16, 6, 2), ag::InvalidArgument);
  EXPECT_THROW(PanelSchedule(16, 0, 16, 6, 2), ag::InvalidArgument);
  EXPECT_THROW(PanelSchedule(16, 12, 0, 6, 2), ag::InvalidArgument);
  EXPECT_THROW(PanelSchedule(16, 12, 16, 0, 2), ag::InvalidArgument);
  EXPECT_THROW(PanelSchedule(16, 12, 16, 6, 0), ag::InvalidArgument);
}

}  // namespace
