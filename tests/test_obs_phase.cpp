// Unit tests for the phase-attribution primitives (obs/phase): the
// CallPhases timeline arithmetic, the obs::Region interval a boundary
// adds to its phase, the stable phase names, and the share-histogram
// quantile reader.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "obs/phase.hpp"
#include "obs/region.hpp"

namespace ag::obs {
namespace {

TEST(Phase, NamesAreStableAndLowercase) {
  EXPECT_STREQ("queue_wait", phase_name(Phase::kQueueWait));
  EXPECT_STREQ("pack_a", phase_name(Phase::kPackA));
  EXPECT_STREQ("pack_b", phase_name(Phase::kPackB));
  EXPECT_STREQ("kernel", phase_name(Phase::kKernel));
  EXPECT_STREQ("barrier", phase_name(Phase::kBarrier));
  EXPECT_STREQ("cache_stall", phase_name(Phase::kCacheStall));
  EXPECT_STREQ("epilogue", phase_name(Phase::kEpilogue));
  EXPECT_STREQ("unknown", phase_name(-1));
  EXPECT_STREQ("unknown", phase_name(kPhaseCount));
}

TEST(Phase, AddIgnoresNonPositive) {
  CallPhases p;
  p.add(Phase::kKernel, 0.5);
  p.add(Phase::kKernel, -1.0);
  p.add(Phase::kKernel, 0.0);
  EXPECT_DOUBLE_EQ(0.5, p.seconds[static_cast<int>(Phase::kKernel)]);
  EXPECT_DOUBLE_EQ(0.5, p.total());
}

TEST(Phase, SlotAliasesTheSecondsArray) {
  CallPhases p;
  *p.slot(Phase::kPackB) += 0.25;
  EXPECT_DOUBLE_EQ(0.25, p.seconds[static_cast<int>(Phase::kPackB)]);
}

TEST(Phase, MergeSumsEveryPhase) {
  CallPhases a, b;
  a.add(Phase::kPackA, 0.1);
  a.add(Phase::kKernel, 1.0);
  b.add(Phase::kKernel, 2.0);
  b.add(Phase::kBarrier, 0.3);
  a.merge(b);
  EXPECT_DOUBLE_EQ(0.1, a.seconds[static_cast<int>(Phase::kPackA)]);
  EXPECT_DOUBLE_EQ(3.0, a.seconds[static_cast<int>(Phase::kKernel)]);
  EXPECT_DOUBLE_EQ(0.3, a.seconds[static_cast<int>(Phase::kBarrier)]);
  EXPECT_NEAR(3.4, a.total(), 1e-12);
}

TEST(Phase, AttributionDividesByWorkers) {
  // Four ranks each spent 1s in the kernel: the call's wall clock saw
  // 1s of kernel time, not 4 — attribution must divide by the rank
  // count so the per-call shares stay within [0, 1].
  CallPhases p;
  p.add(Phase::kKernel, 4.0);
  p.add(Phase::kBarrier, 2.0);
  p.workers = 4;
  EXPECT_DOUBLE_EQ(1.0, p.attributed(static_cast<int>(Phase::kKernel)));
  EXPECT_DOUBLE_EQ(0.5, p.attributed(static_cast<int>(Phase::kBarrier)));
  EXPECT_DOUBLE_EQ(1.5, p.attributed_total());
  p.workers = 0;  // defensive: never divide by zero
  EXPECT_DOUBLE_EQ(0.0, p.attributed_total());
}

// A region feeds the phase of its boundary (obs/region.hpp's table);
// under -DARMGEMM_STATS=OFF it compiles to nothing.
TEST(Phase, ScopeAccumulatesElapsedTime) {
  if (!stats_compiled_in) GTEST_SKIP() << "regions compiled out";
  CallPhases p;
  const Sinks sinks{nullptr, &p};
  {
    Region scope(sinks, Boundary::kPackA);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double got = p.seconds[static_cast<int>(Phase::kPackA)];
  EXPECT_GT(got, 1e-3);
  EXPECT_LT(got, 1.0);  // sanity: not wildly off
}

TEST(Phase, ScopeNestedScopesSumIntoTheirPhases) {
  if (!stats_compiled_in) GTEST_SKIP() << "regions compiled out";
  CallPhases p;
  const Sinks sinks{nullptr, &p};
  {
    Region outer(sinks, Boundary::kGebp);  // the kernel phase
    Region inner(sinks, Boundary::kPackB);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Both scopes covered the same sleep, each into its own phase.
  EXPECT_GT(p.seconds[static_cast<int>(Phase::kKernel)], 5e-4);
  EXPECT_GT(p.seconds[static_cast<int>(Phase::kPackB)], 5e-4);
}

// A region reads the clock only for a sink its boundary feeds: a batch
// ticket span feeds the tracer alone, so a phase timeline leaves it shut.
TEST(Phase, RegionFeedsOnlyItsBoundarysPhase) {
  if (!stats_compiled_in) GTEST_SKIP() << "regions compiled out";
  CallPhases p;
  const Sinks sinks{nullptr, &p};
  Region ticket(sinks, Boundary::kTicketBlocked);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ticket.close().seconds, 0.0);
  EXPECT_EQ(p.total(), 0.0);

  Region pack(sinks, Boundary::kPackB);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const Interval iv = pack.close();
  EXPECT_GT(iv.seconds, 5e-4);
  EXPECT_EQ(p.seconds[static_cast<int>(Phase::kPackB)], iv.seconds);
  EXPECT_EQ(pack.close().seconds, 0.0);  // closed once; the destructor adds nothing
  EXPECT_EQ(p.total(), iv.seconds);
}

TEST(Phase, NullScopeIsANoop) {
  const Sinks none;
  Region scope(none, Boundary::kPackA);  // must not read the clock or crash
  SUCCEED();
}

/// Folds `count` calls with the given share into a snapshot-side
/// histogram the way the telemetry layer's AtomicHistogram + snapshot
/// pair would: counts by 0.02-wide bucket, sum/max in natural units.
void record_share(PhaseShareHistogram& h, double share, int count) {
  for (int i = 0; i < count; ++i) {
    h.counts[static_cast<std::size_t>(efficiency_bucket(share))]++;
    h.total++;
    h.sum += share;
    if (share > h.max) h.max = share;
  }
}

TEST(Phase, ShareQuantileEmptyIsZero) {
  PhaseShareHistogram h;
  EXPECT_DOUBLE_EQ(0.0, share_quantile(h, 0.5));
}

TEST(Phase, ShareQuantileReadsBucketMidpoints) {
  // 90 calls with ~10% share, 10 calls with ~50% share: p50 lands in
  // the 0.10 bucket, p99 in the 0.50 bucket.
  PhaseShareHistogram h;
  record_share(h, 0.10, 90);
  record_share(h, 0.50, 10);

  const double p50 = share_quantile(h, 0.50);
  const double p99 = share_quantile(h, 0.99);
  EXPECT_NEAR(0.10, p50, 0.02);
  EXPECT_NEAR(0.50, p99, 0.02);
  EXPECT_LE(p50, p99);
}

TEST(Phase, ShareQuantileClampsToRecordedMax) {
  PhaseShareHistogram h;
  record_share(h, 0.30, 5);
  // The covering bucket's midpoint may exceed the true maximum; the
  // reader must clamp to the recorded max.
  EXPECT_LE(share_quantile(h, 1.0), 0.30 + 1e-9);
  EXPECT_NEAR(0.30, h.mean(), 1e-12);
}

}  // namespace
}  // namespace ag::obs
