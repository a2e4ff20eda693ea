// The PMU layer's contract: counts arithmetic is exact, groups open and
// degrade per event, the collector attributes regions to (rank, layer)
// through real dgemm calls, and every path works identically whether the
// host exposes hardware counters or not. Hardware-only assertions are
// gated on PmuGroup::hardware_available(); the forced-fallback tests
// exercise the degradation chain even on counter-capable hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/json.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "obs/expected.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/pmu.hpp"
#include "obs/region.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;
using ag::obs::PmuCollector;
using ag::obs::PmuCounts;
using ag::obs::PmuEvent;
using ag::obs::PmuGroup;
using ag::obs::PmuLayer;
using ag::obs::PmuSource;

namespace {

/// Saves and restores the process-wide fallback switch so tests compose.
class ForcedFallbackGuard {
 public:
  explicit ForcedFallbackGuard(bool forced) : saved_(ag::obs::pmu_forced_fallback()) {
    ag::obs::pmu_set_forced_fallback(forced);
  }
  ~ForcedFallbackGuard() { ag::obs::pmu_set_forced_fallback(saved_); }

 private:
  bool saved_;
};

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
            a.data(), a.ld(), b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
}

/// Burns a few microseconds of real work so time-derived counters move.
volatile double g_sink = 0;
void busy_work() {
  double x = 1.0;
  for (int i = 0; i < 200000; ++i) x = x * 1.0000001 + 1e-9;
  g_sink = x;
}

TEST(PmuCounts, DeltaSaturatesPerEvent) {
  PmuCounts begin, end;
  begin[PmuEvent::kCycles] = 100;
  end[PmuEvent::kCycles] = 350;
  begin[PmuEvent::kInstructions] = 500;  // counter went "backwards" (reopen)
  end[PmuEvent::kInstructions] = 200;
  const PmuCounts d = PmuCounts::delta(begin, end);
  EXPECT_EQ(d[PmuEvent::kCycles], 250u);
  EXPECT_EQ(d[PmuEvent::kInstructions], 0u);  // saturates, never wraps
  EXPECT_EQ(d[PmuEvent::kL1dAccess], 0u);
}

TEST(PmuCounts, AccumulateAndDerivedMetrics) {
  PmuCounts a;
  a[PmuEvent::kCycles] = 1000;
  a[PmuEvent::kInstructions] = 2500;
  a[PmuEvent::kL1dAccess] = 400;
  a[PmuEvent::kL1dRefill] = 40;
  a[PmuEvent::kStallCycles] = 250;
  PmuCounts b = a;
  b += a;
  EXPECT_EQ(b[PmuEvent::kCycles], 2000u);
  EXPECT_EQ(b[PmuEvent::kL1dRefill], 80u);
  EXPECT_DOUBLE_EQ(a.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(a.l1d_miss_rate(), 0.1);
  EXPECT_DOUBLE_EQ(a.stall_fraction(), 0.25);
}

TEST(PmuCounts, DerivedMetricsGuardZeroDenominators) {
  const PmuCounts zero;
  EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(zero.l1d_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(zero.stall_fraction(), 0.0);
}

TEST(PmuStrings, EveryEnumValueNamed) {
  for (int e = 0; e < ag::obs::kPmuEventCount; ++e)
    EXPECT_STRNE(to_string(static_cast<PmuEvent>(e)), "?");
  for (int l = 0; l < ag::obs::kPmuLayerCount; ++l)
    EXPECT_STRNE(to_string(static_cast<PmuLayer>(l)), "?");
  EXPECT_STREQ(to_string(PmuSource::kHardware), "hw");
  EXPECT_STREQ(to_string(PmuSource::kUnavailable), "n/a");
}

TEST(PmuGroup, OpensAndReadsMonotonically) {
  PmuGroup g;
  g.open();
  EXPECT_TRUE(g.is_open());
  // Cycles always have at least the synthetic timestamp fallback.
  EXPECT_NE(g.source(PmuEvent::kCycles), PmuSource::kUnavailable);
  const PmuCounts first = g.read();
  busy_work();
  const PmuCounts second = g.read();
  EXPECT_GE(second[PmuEvent::kCycles], first[PmuEvent::kCycles]);
  EXPECT_GT(second[PmuEvent::kCycles], 0u);
  g.close();
  EXPECT_FALSE(g.is_open());
  EXPECT_FALSE(g.any_hardware());
  EXPECT_EQ(g.read()[PmuEvent::kCycles], 0u);
}

TEST(PmuGroup, HardwareCountersCountRealWork) {
  if (!PmuGroup::hardware_available()) GTEST_SKIP() << "no hardware PMU on this host";
  PmuGroup g;
  EXPECT_TRUE(g.open());
  EXPECT_TRUE(g.any_hardware());
  EXPECT_EQ(g.source(PmuEvent::kCycles), PmuSource::kHardware);
  const PmuCounts before = g.read();
  busy_work();
  const PmuCounts d = PmuCounts::delta(before, g.read());
  // The busy loop retires >= one instruction per iteration.
  EXPECT_GT(d[PmuEvent::kCycles], 0u);
  EXPECT_GT(d[PmuEvent::kInstructions], 100000u);
}

TEST(PmuGroup, ForcedFallbackDegradesHonestly) {
  ForcedFallbackGuard guard(true);
  EXPECT_TRUE(ag::obs::pmu_forced_fallback());
  EXPECT_FALSE(PmuGroup::hardware_available());
  PmuGroup g;
  EXPECT_FALSE(g.open());  // no hardware event opened
  EXPECT_FALSE(g.any_hardware());
  EXPECT_EQ(g.source(PmuEvent::kCycles), PmuSource::kSynthetic);
  for (PmuEvent e : {PmuEvent::kInstructions, PmuEvent::kL1dAccess, PmuEvent::kL1dRefill,
                     PmuEvent::kL2Refill, PmuEvent::kStallCycles, PmuEvent::kBranchMisses})
    EXPECT_EQ(g.source(e), PmuSource::kUnavailable) << to_string(e);
  busy_work();
  const PmuCounts c = g.read();
  EXPECT_GT(c[PmuEvent::kCycles], 0u);  // synthetic: 1 "cycle" == 1 ns
  EXPECT_EQ(c[PmuEvent::kL1dAccess], 0u);
  EXPECT_EQ(c[PmuEvent::kInstructions], 0u);
}

TEST(PmuCollector, RegionWithoutCollectorIsNoOp) {
  ag::obs::GemmStats stats;  // no PMU collector attached
  const ag::obs::Sinks sinks{&stats};
  ag::obs::Region region(sinks, ag::obs::Boundary::kGebp);  // must not crash or allocate fds
}

TEST(PmuCollector, SerialDgemmAttributesRegionsPerLayer) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  // 32x24x16 sits under the default fast-path threshold; pin the packed
  // path so the per-layer region arithmetic applies.
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  const ag::BlockSizes bs = tiny_blocks();
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(bs);
  ag::obs::GemmStats stats;
  PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);

  const index_t m = 32, n = 24, k = 16;
  run_dgemm(ctx, m, n, k);

  // The serial driver opens one region per pack/GEBP call, so the
  // region counts must equal the blocking arithmetic exactly.
  const auto want = ag::obs::expected_gemm_counters(m, n, k, bs);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kTotal), 1u);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kPackA), want.pack_a_calls);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kPackB), want.pack_b_calls);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kGebp), want.gebp_calls);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kBarrier), 0u);  // no barriers serial
  EXPECT_EQ(pmu.discarded_regions(), 0u);

  const PmuCounts total = pmu.layer_totals(PmuLayer::kTotal);
  const PmuCounts gebp = pmu.layer_totals(PmuLayer::kGebp);
  EXPECT_GT(total[PmuEvent::kCycles], 0u);
  EXPECT_GT(gebp[PmuEvent::kCycles], 0u);
  // GEBP nests inside the total region on the same thread; allow slack
  // for multiplex scaling jitter on hardware counters.
  EXPECT_LE(gebp[PmuEvent::kCycles],
            total[PmuEvent::kCycles] + total[PmuEvent::kCycles] / 4 + 10000);

  // Serial: everything lands on rank 0.
  const PmuCounts rank0 = pmu.rank_layer_totals(0, PmuLayer::kTotal);
  EXPECT_EQ(rank0[PmuEvent::kCycles], total[PmuEvent::kCycles]);
}

TEST(PmuCollector, ParallelDgemmAttributesBarriersWithoutDiscards) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 2);
  ctx.set_block_sizes(tiny_blocks());
  ag::obs::GemmStats stats;
  PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);

  run_dgemm(ctx, 96, 48, 32);

  EXPECT_EQ(pmu.layer_regions(PmuLayer::kTotal), 1u);
  EXPECT_GT(pmu.layer_regions(PmuLayer::kPackA), 0u);
  EXPECT_GT(pmu.layer_regions(PmuLayer::kPackB), 0u);
  EXPECT_GT(pmu.layer_regions(PmuLayer::kGebp), 0u);
  // One barrier region per k-panel per rank (pipelined packing folded
  // the second sync away), and nranks divides the total.
  EXPECT_GT(pmu.layer_regions(PmuLayer::kBarrier), 0u);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kBarrier) % 2, 0u);
  // Pool ranks keep stable owner threads, so no delta is ever discarded.
  EXPECT_EQ(pmu.discarded_regions(), 0u);
  EXPECT_GT(pmu.layer_totals(PmuLayer::kTotal)[PmuEvent::kCycles], 0u);
}

TEST(PmuCollector, ResetZeroesAccumulatorsButKeepsProvenance) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(tiny_blocks());
  ag::obs::GemmStats stats;
  PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);
  run_dgemm(ctx, 16, 12, 8);
  ASSERT_GT(pmu.layer_regions(PmuLayer::kTotal), 0u);

  const bool hw_before = pmu.any_hardware();
  pmu.reset();
  for (int l = 0; l < ag::obs::kPmuLayerCount; ++l) {
    const PmuLayer layer = static_cast<PmuLayer>(l);
    EXPECT_EQ(pmu.layer_regions(layer), 0u);
    EXPECT_EQ(pmu.layer_totals(layer)[PmuEvent::kCycles], 0u);
  }
  EXPECT_EQ(pmu.discarded_regions(), 0u);
  EXPECT_EQ(pmu.any_hardware(), hw_before);  // groups stay open

  // The collector keeps recording after a reset.
  run_dgemm(ctx, 16, 12, 8);
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kTotal), 1u);
}

TEST(PmuCollector, ToJsonIsWellFormedAndComplete) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(tiny_blocks());
  ag::obs::GemmStats stats;
  PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);
  run_dgemm(ctx, 16, 12, 8);

  std::string err;
  const ag::JsonValue doc = ag::JsonValue::parse(pmu.to_json(), &err);
  ASSERT_TRUE(doc.is_object()) << err;
  EXPECT_TRUE(doc.has("available"));
  EXPECT_TRUE(doc.has("forced_fallback"));
  EXPECT_TRUE(doc["events"].is_object());
  EXPECT_FALSE(doc["events"]["cycles"].as_string().empty());
  ASSERT_TRUE(doc["layers"].is_object());
  for (const char* layer : {"total", "pack_a", "pack_b", "gebp", "barrier", "small"})
    EXPECT_TRUE(doc["layers"][layer].has("regions")) << layer;
  EXPECT_DOUBLE_EQ(doc["layers"]["total"]["regions"].as_number(), 1.0);
  EXPECT_GT(doc["layers"]["total"]["cycles"].as_number(), 0.0);
}

TEST(PmuCollector, ForcedFallbackEndToEndThroughDgemm) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ForcedFallbackGuard guard(true);
  ag::Context ctx(ag::KernelShape{8, 6}, 2);
  ctx.set_block_sizes(tiny_blocks());
  ag::obs::GemmStats stats;
  PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);

  run_dgemm(ctx, 64, 48, 32);

  EXPECT_FALSE(pmu.any_hardware());
  const auto src = pmu.sources();
  EXPECT_EQ(src[static_cast<int>(PmuEvent::kCycles)], PmuSource::kSynthetic);
  EXPECT_EQ(src[static_cast<int>(PmuEvent::kL1dAccess)], PmuSource::kUnavailable);
  const PmuCounts total = pmu.layer_totals(PmuLayer::kTotal);
  EXPECT_GT(total[PmuEvent::kCycles], 0u);  // wall-derived synthetic cycles
  EXPECT_EQ(total[PmuEvent::kL1dAccess], 0u);
  EXPECT_EQ(total[PmuEvent::kInstructions], 0u);
  EXPECT_EQ(pmu.discarded_regions(), 0u);

  std::string err;
  const ag::JsonValue doc = ag::JsonValue::parse(pmu.to_json(), &err);
  ASSERT_TRUE(doc.is_object()) << err;
  EXPECT_FALSE(doc["available"].as_bool(true));
  EXPECT_TRUE(doc["forced_fallback"].as_bool(false));
  EXPECT_EQ(doc["events"]["cycles"].as_string(), "syn");
  EXPECT_EQ(doc["events"]["l1d_access"].as_string(), "n/a");
}

TEST(PmuCollector, RankSaturationBeyondMaxThreads) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  PmuCollector pmu(2);
  EXPECT_EQ(pmu.max_threads(), 2);
  ag::obs::GemmStats stats;
  stats.set_pmu(&pmu);
  const ag::obs::Sinks sinks{&stats, nullptr, false, 99};
  {
    ag::obs::Region region(sinks, ag::obs::Boundary::kGebp);  // clamps into the last rank
    busy_work();
  }
  EXPECT_EQ(pmu.layer_regions(PmuLayer::kGebp), 1u);
  EXPECT_EQ(pmu.rank_layer_totals(1, PmuLayer::kGebp)[PmuEvent::kCycles],
            pmu.layer_totals(PmuLayer::kGebp)[PmuEvent::kCycles]);
}

}  // namespace
