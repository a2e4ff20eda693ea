// Every layer boundary a dgemm call crosses opens one obs::Region, which
// hands one clock interval to every attached sink. So for every boundary
// the tracer's span count, the PMU collector's region count and the
// GemmStats call count agree, and on one rank the GemmStats seconds of
// pack A, pack B and GEBP equal the phase timeline's seconds bit for bit.
// A rank with no work at a boundary (an empty B sliver range) records
// nothing in any sink. The suite reads the sinks through their own
// interfaces only, not through the region.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "model/perf_model.hpp"
#include "obs/expected.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/pmu.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "scoped_knobs.hpp"

namespace ag::obs {
namespace {

BlockSizes tiny_blocks() {
  BlockSizes bs;
  bs.mr = 8;
  bs.nr = 6;
  bs.kc = 8;
  bs.mc = 16;
  bs.nc = 12;
  return bs;
}

void run_dgemm(const Context& ctx, index_t m, index_t n, index_t k) {
  auto a = random_matrix(m, k, 1);
  auto b = random_matrix(k, n, 2);
  auto c = random_matrix(m, n, 3);
  dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0, a.data(), a.ld(),
        b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
}

/// Every sink at once: a context with GemmStats, a Tracer and a
/// PmuCollector attached, serving telemetry recording with phase
/// attribution on (injected model, no file output, no anomaly captures).
class ObsRegion : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!stats_compiled_in) GTEST_SKIP() << "regions compiled out";
    stats_.set_tracer(&tracer_);
    stats_.set_pmu(&pmu_);
    telemetry_set_model(10.0, model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
    telemetry_enable();
    telemetry_reset();
  }
  void TearDown() override {
    if (!stats_compiled_in) return;
    telemetry_disable();
    telemetry_reset();
  }

  /// Runs one call on `threads` ranks with every sink attached.
  void run(int threads, index_t m, index_t n, index_t k) {
    Context ctx(KernelShape{8, 6}, threads);
    ctx.set_block_sizes(tiny_blocks());
    ctx.set_stats(&stats_);
    run_dgemm(ctx, m, n, k);
    ctx.set_stats(nullptr);
  }

  /// Chrome-trace "X" spans per name.
  std::map<std::string, std::uint64_t> spans() const {
    std::string err;
    const JsonValue doc = JsonValue::parse(tracer_.to_json(), &err);
    EXPECT_TRUE(doc.is_array()) << err;
    std::map<std::string, std::uint64_t> n;
    for (const JsonValue& ev : doc.items())
      if (ev["ph"].as_string() == "X") ++n[ev["name"].as_string()];
    return n;
  }

  /// The one flight record of the call, with its phase timeline.
  CallRecord record() const {
    const TelemetrySnapshot snap = telemetry_snapshot();
    EXPECT_EQ(snap.flight.size(), 1u);
    return snap.flight.empty() ? CallRecord{} : snap.flight.back();
  }

  /// Tracer spans == PMU regions == GemmStats calls at one boundary.
  void expect_agree(const char* span, PmuLayer layer, std::uint64_t stats_calls,
                    std::uint64_t want) {
    EXPECT_EQ(spans()[span], want) << span;
    EXPECT_EQ(pmu_.layer_regions(layer), want) << span;
    EXPECT_EQ(stats_calls, want) << span;
  }

  agtest::ScopedKnob metrics_{Knob::kMetricsPath, ""};
  agtest::ScopedKnob forensics_{Knob::kForensicsDir, ""};
  agtest::ScopedKnob slow_calls_{Knob::kSlowCallFactor, 0.0};
  agtest::ScopedKnob drift_{Knob::kDriftThreshold, 1000.0};
  agtest::ScopedKnob phases_{Knob::kPhases, true};
  GemmStats stats_;
  Tracer tracer_;
  PmuCollector pmu_;
};

TEST_F(ObsRegion, SinksAgreeAtEveryBoundaryOnOneRank) {
  agtest::ScopedKnob packed_path(Knob::kSmallMnk, 0);
  const index_t m = 64, n = 48, k = 32;
  run(1, m, n, k);

  const LayerCounters t = stats_.totals();
  const LayerCounters want = expected_gemm_counters(m, n, k, tiny_blocks());
  expect_agree("dgemm", PmuLayer::kTotal, t.gemm_calls, 1);
  expect_agree("pack_a", PmuLayer::kPackA, t.pack_a_calls, want.pack_a_calls);
  expect_agree("pack_b", PmuLayer::kPackB, t.pack_b_calls, want.pack_b_calls);
  expect_agree("gebp", PmuLayer::kGebp, t.gebp_calls, want.gebp_calls);
  expect_agree("small_gemm", PmuLayer::kSmall, t.small_calls, 0);
  EXPECT_EQ(spans()["barrier"], 0u);
  EXPECT_EQ(pmu_.discarded_regions(), 0u);

  // One interval per boundary, handed to both sinks: the sums match
  // exactly, not just closely.
  const CallRecord rec = record();
  EXPECT_GT(t.gebp_seconds, 0.0);
  EXPECT_EQ(t.pack_a_seconds, rec.phases.seconds[static_cast<int>(Phase::kPackA)]);
  EXPECT_EQ(t.pack_b_seconds, rec.phases.seconds[static_cast<int>(Phase::kPackB)]);
  EXPECT_EQ(t.gebp_seconds, rec.phases.seconds[static_cast<int>(Phase::kKernel)]);
  EXPECT_EQ(t.total_seconds, rec.seconds);
}

TEST_F(ObsRegion, SinksAgreeOnTheSmallPath) {
  agtest::ScopedKnob small_path(Knob::kSmallMnk, 32);
  run(1, 16, 12, 8);

  const LayerCounters t = stats_.totals();
  expect_agree("dgemm", PmuLayer::kTotal, t.gemm_calls, 1);
  expect_agree("small_gemm", PmuLayer::kSmall, t.small_calls, 1);
  expect_agree("pack_a", PmuLayer::kPackA, t.pack_a_calls, 0);
  expect_agree("pack_b", PmuLayer::kPackB, t.pack_b_calls, 0);
  expect_agree("gebp", PmuLayer::kGebp, t.gebp_calls, 0);

  const CallRecord rec = record();
  EXPECT_GT(t.small_seconds, 0.0);
  EXPECT_EQ(t.small_seconds, rec.phases.seconds[static_cast<int>(Phase::kKernel)]);
}

TEST_F(ObsRegion, SinksAgreeAcrossTwoRanksWithEmptySliverRanges) {
  // n = 6 is one B sliver per panel: rank 1's share of every panel is
  // empty, so only rank 0 packs B, and only its packs are recorded.
  agtest::ScopedKnob packed_path(Knob::kSmallMnk, 0);
  const index_t m = 96, n = 6, k = 32;
  run(2, m, n, k);

  const LayerCounters t = stats_.totals();
  const LayerCounters want = expected_gemm_counters(m, n, k, tiny_blocks());
  const std::uint64_t panels = 4;  // k / kc, one column panel
  expect_agree("dgemm", PmuLayer::kTotal, t.gemm_calls, 1);
  expect_agree("pack_b", PmuLayer::kPackB, t.pack_b_calls, panels);
  expect_agree("pack_a", PmuLayer::kPackA, t.pack_a_calls, want.pack_a_calls);
  expect_agree("gebp", PmuLayer::kGebp, t.gebp_calls, want.gebp_calls);
  EXPECT_EQ(pmu_.discarded_regions(), 0u);

  // Both ranks wait once after the prologue pack and once per panel but
  // the last: every barrier wait is one span and one PMU region.
  const std::uint64_t barriers = 2 * panels;
  EXPECT_EQ(spans()["barrier"], barriers);
  EXPECT_EQ(pmu_.layer_regions(PmuLayer::kBarrier), barriers);

  // The same barrier intervals feed GemmStats and the phase timeline;
  // they are summed in a different order across ranks, so only closely.
  const CallRecord rec = record();
  EXPECT_EQ(rec.phases.workers, 2);
  EXPECT_GE(t.barrier_seconds, 0.0);
  EXPECT_NEAR(t.barrier_seconds, rec.phases.seconds[static_cast<int>(Phase::kBarrier)], 1e-12);
  EXPECT_NEAR(t.pack_b_seconds, rec.phases.seconds[static_cast<int>(Phase::kPackB)], 1e-12);

  // Telemetry keeps one barrier-wait sample per rank for the call.
  std::uint64_t samples = 0;
  for (const WorkerSnapshot& w : telemetry_snapshot().workers) samples += w.barrier_wait.total;
  EXPECT_EQ(samples, 2u);
}

}  // namespace
}  // namespace ag::obs
