// The observability layer must be trustworthy before it can steer tuning:
// counters are exact on tiny known shapes (they equal the blocking
// arithmetic), aggregate correctly across pool threads, report all-zero
// with no side effects when disabled, and the JSON/tracer emission is
// well-formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "capi/armgemm_cblas.h"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "obs/expected.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/region.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;

namespace {

ag::BlockSizes tiny_blocks(int mr, int nr) {
  ag::BlockSizes bs;
  bs.mr = mr;
  bs.nr = nr;
  bs.kc = 8;
  bs.mc = 16;
  bs.nc = 12;
  return bs;
}

void run_dgemm(const ag::Context& ctx, index_t m, index_t n, index_t k, double alpha = 1.0,
               double beta = 1.0) {
  auto a = ag::random_matrix(m, k, 1);
  auto b = ag::random_matrix(k, n, 2);
  auto c = ag::random_matrix(m, n, 3);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, alpha,
            a.data(), std::max<index_t>(a.ld(), 1), b.data(), std::max<index_t>(b.ld(), 1),
            beta, c.data(), std::max<index_t>(c.ld(), 1), ctx);
}

void expect_counts_match(const ag::obs::LayerCounters& got, const ag::obs::LayerCounters& want,
                         bool check_pack_b_calls, const std::string& label) {
  EXPECT_EQ(got.gemm_calls, want.gemm_calls) << label;
  EXPECT_EQ(got.pack_a_calls, want.pack_a_calls) << label;
  if (check_pack_b_calls) EXPECT_EQ(got.pack_b_calls, want.pack_b_calls) << label;
  EXPECT_EQ(got.gebp_calls, want.gebp_calls) << label;
  EXPECT_EQ(got.kernel_calls, want.kernel_calls) << label;
  EXPECT_EQ(got.pack_a_bytes, want.pack_a_bytes) << label;
  EXPECT_EQ(got.pack_b_bytes, want.pack_b_bytes) << label;
  EXPECT_EQ(got.c_bytes, want.c_bytes) << label;
  EXPECT_DOUBLE_EQ(got.flops, want.flops) << label;
}

TEST(ObsStats, ExactCountersOnTinyShapes) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  const ag::BlockSizes bs = tiny_blocks(8, 6);
  ctx.set_block_sizes(bs);

  // Shapes chosen to exercise exact fits, edge tiles, and sub-block sizes.
  const index_t shapes[][3] = {{16, 12, 8},  {16, 12, 16}, {17, 13, 9}, {1, 1, 1},
                               {8, 6, 8},    {33, 25, 20}, {5, 40, 3},  {40, 5, 24}};
  for (const auto& s : shapes) {
    ag::obs::GemmStats stats;
    ctx.set_stats(&stats);
    run_dgemm(ctx, s[0], s[1], s[2]);
    ctx.set_stats(nullptr);
    const auto want = ag::obs::expected_gemm_counters(s[0], s[1], s[2], bs);
    std::ostringstream label;
    label << s[0] << "x" << s[1] << "x" << s[2];
    expect_counts_match(stats.totals(), want, /*check_pack_b_calls=*/true, label.str());
    EXPECT_GT(stats.totals().total_seconds, 0.0);
  }
}

TEST(ObsStats, ByHandArithmeticOneBlock) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  // 16x12x8 with kc=8, mc=16, nc=12 is exactly one (jj, kk, ii) iteration:
  // one B panel of ceil(12/6)=2 slivers, one A block of ceil(16/8)=2
  // slivers, one GEBP call dispatching 2*2 register kernels. The shape is
  // below the default fast-path threshold, so pin it to the packed path.
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(tiny_blocks(8, 6));
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 16, 12, 8);
  const auto t = stats.totals();
  EXPECT_EQ(t.pack_a_calls, 1u);
  EXPECT_EQ(t.pack_b_calls, 1u);
  EXPECT_EQ(t.gebp_calls, 1u);
  EXPECT_EQ(t.kernel_calls, 4u);
  EXPECT_EQ(t.pack_a_bytes, 16u * 8u * 8u);        // mc*kc doubles
  EXPECT_EQ(t.pack_b_bytes, 8u * 12u * 8u);        // kc*nc doubles
  EXPECT_EQ(t.c_bytes, 2u * 16u * 12u * 8u);       // C read + write
  EXPECT_DOUBLE_EQ(t.flops, 2.0 * 16 * 12 * 8);
}

TEST(ObsStats, ByHandArithmeticSmallFastPath) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  // 16x12x8 sits under the threshold: one small_gemm region, no packing,
  // no GEBP, and C traffic of one read + one write of the full matrix.
  agtest::ScopedKnob fast_path(ag::Knob::kSmallMnk, 32);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ctx.set_block_sizes(tiny_blocks(8, 6));
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 16, 12, 8);
  const auto t = stats.totals();
  EXPECT_EQ(t.gemm_calls, 1u);
  EXPECT_EQ(t.small_calls, 1u);
  EXPECT_EQ(t.pack_a_calls, 0u);
  EXPECT_EQ(t.pack_b_calls, 0u);
  EXPECT_EQ(t.gebp_calls, 0u);
  EXPECT_EQ(t.kernel_calls, 0u);
  EXPECT_EQ(t.pack_a_bytes, 0u);
  EXPECT_EQ(t.pack_b_bytes, 0u);
  EXPECT_EQ(t.c_bytes, 2u * 16u * 12u * 8u);
  EXPECT_GT(t.small_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t.flops, 2.0 * 16 * 12 * 8);
}

TEST(ObsStats, DegenerateCallsRecordNoTraffic) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 4, 4, 0);              // k == 0: pure beta-scale
  run_dgemm(ctx, 4, 4, 4, /*alpha=*/0.0);  // alpha == 0: pure beta-scale
  const auto t = stats.totals();
  EXPECT_EQ(t.gemm_calls, 2u);
  EXPECT_EQ(t.pack_a_calls, 0u);
  EXPECT_EQ(t.pack_b_calls, 0u);
  EXPECT_EQ(t.gebp_calls, 0u);
  EXPECT_DOUBLE_EQ(t.flops, 0.0);
}

TEST(ObsStats, ParallelAggregationMatchesSerial) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  const index_t m = 180, n = 96, k = 64;
  const ag::BlockSizes bs = tiny_blocks(8, 6);

  ag::Context serial(ag::KernelShape{8, 6}, 1);
  serial.set_block_sizes(bs);
  ag::obs::GemmStats serial_stats;
  serial.set_stats(&serial_stats);
  run_dgemm(serial, m, n, k);

  ag::Context parallel(ag::KernelShape{8, 6}, 4);
  parallel.set_block_sizes(bs);
  ag::obs::GemmStats parallel_stats;
  parallel.set_stats(&parallel_stats);
  run_dgemm(parallel, m, n, k);

  // Work totals are path-independent; only pack_b_calls (whole panels vs
  // per-rank sliver ranges) legitimately differs.
  const auto want = ag::obs::expected_gemm_counters(m, n, k, bs);
  expect_counts_match(serial_stats.totals(), want, /*check_pack_b_calls=*/true, "serial");
  expect_counts_match(parallel_stats.totals(), want, /*check_pack_b_calls=*/false, "parallel");

  // The work must actually have been spread over several ranks.
  EXPECT_GT(parallel_stats.per_thread().size(), 1u);
  std::uint64_t summed = 0;
  for (const auto& th : parallel_stats.per_thread()) summed += th.gebp_calls;
  EXPECT_EQ(summed, want.gebp_calls);
}

TEST(ObsStats, NoCollectorMeansNoRecordingAndNoSideEffects) {
  // Whether or not stats are compiled in: a context without a collector
  // must leave a bystander collector untouched, and results identical.
  ag::obs::GemmStats stats;
  ag::Context ctx(ag::KernelShape{8, 6}, 1);

  const index_t m = 32, n = 24, k = 16;
  auto a = ag::random_matrix(m, k, 11);
  auto b = ag::random_matrix(k, n, 12);
  auto c_plain = ag::random_matrix(m, n, 13);
  ag::Matrix<double> c_attached(c_plain);

  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
            a.data(), a.ld(), b.data(), b.ld(), 1.0, c_plain.data(), c_plain.ld(), ctx);

  const auto t = stats.totals();
  EXPECT_EQ(t.gemm_calls, 0u);
  EXPECT_EQ(t.pack_a_bytes + t.pack_b_bytes + t.c_bytes, 0u);
  EXPECT_DOUBLE_EQ(t.total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t.flops, 0.0);

  // Attaching a collector must not change numerical results.
  ctx.set_stats(&stats);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
            a.data(), a.ld(), b.data(), b.ld(), 1.0, c_attached.data(), c_attached.ld(), ctx);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) ASSERT_EQ(c_plain(i, j), c_attached(i, j));
}

TEST(ObsStats, CompiledOutBuildStaysAllZero) {
  if (ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled in";
  // ARMGEMM_STATS_DISABLED: even an attached collector records nothing.
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  EXPECT_EQ(ctx.stats(), nullptr);
  run_dgemm(ctx, 32, 24, 16);
  EXPECT_EQ(stats.totals().gemm_calls, 0u);
  EXPECT_DOUBLE_EQ(stats.totals().flops, 0.0);
}

TEST(ObsStats, ResetZeroesEverything) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 32, 24, 16);
  ASSERT_GT(stats.totals().gemm_calls, 0u);
  stats.reset();
  const auto t = stats.totals();
  EXPECT_EQ(t.gemm_calls + t.pack_a_calls + t.pack_b_calls + t.gebp_calls + t.kernel_calls,
            0u);
  EXPECT_DOUBLE_EQ(t.total_seconds + t.flops + t.pack_a_seconds + t.pack_b_seconds +
                       t.gebp_seconds + t.barrier_seconds,
                   0.0);
}

TEST(ObsStats, JsonContainsCountersAndDerivedMetrics) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 32, 24, 16);
  const std::string json = stats.to_json();
  for (const char* key : {"\"totals\"", "\"threads\"", "\"pack_a_bytes\"", "\"gamma\"",
                          "\"gflops\"", "\"kernel_calls\""})
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
}

TEST(ObsStats, TracerRecordsRegionsAndEmitsChromeTraceJson) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  ag::Context ctx(ag::KernelShape{8, 6}, 2);
  ag::obs::GemmStats stats;
  ag::obs::Tracer tracer;
  stats.set_tracer(&tracer);
  ctx.set_stats(&stats);
  run_dgemm(ctx, 96, 48, 32);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  const std::string json = tracer.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  for (const char* key : {"\"dgemm\"", "\"pack_b\"", "\"gebp\"", "\"ph\":\"X\"", "\"tid\""})
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  // Chrome-trace polish: process/thread metadata events plus block
  // ordinals on the instrumented regions.
  for (const char* key : {"\"ph\":\"M\"", "\"process_name\"", "\"thread_name\"",
                          "\"armgemm\"", "rank 0 (driver)", "\"args\"", "\"jc\":0",
                          "\"ic\":0", "\"pc\":0"})
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObsStats, ReportTablesRender) {
  if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  const ag::BlockSizes bs = tiny_blocks(8, 6);
  ctx.set_block_sizes(bs);
  ag::obs::GemmStats stats;
  ctx.set_stats(&stats);
  run_dgemm(ctx, 64, 48, 32);
  const std::string report =
      ag::obs::format_report(stats.totals(), 64, 48, 32, bs);
  for (const char* key : {"pack-A", "pack-B", "GEBP", "gamma", "measured vs", "PREA", "PREB"})
    EXPECT_NE(report.find(key), std::string::npos) << key << " missing in:\n" << report;
  // Counter rows must agree exactly, so every delta prints as 0.00%.
  EXPECT_EQ(report.find("nan"), std::string::npos);
}

TEST(ObsStatsCapi, EnableCollectRoundTrip) {
  armgemm_stats_reset();
  ASSERT_EQ(armgemm_stats_enabled(), 0);

  // Pin the packed path through the C API (24x20x16 would otherwise take
  // the small-matrix fast path and record no kernel calls); doubles as a
  // round-trip test of the knob itself.
  const std::string prev_small = ag::knob_text(ag::Knob::kSmallMnk);
  armgemm_config_set("ARMGEMM_SMALL_MNK", "0");
  ASSERT_EQ(ag::small_gemm_mnk(), 0);

  // Disabled: nothing is recorded.
  {
    auto a = ag::random_matrix(24, 16, 21), b = ag::random_matrix(16, 20, 22),
         c = ag::random_matrix(24, 20, 23);
    cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, 24, 20, 16, 1.0, a.data(),
                static_cast<int>(a.ld()), b.data(), static_cast<int>(b.ld()), 1.0, c.data(),
                static_cast<int>(c.ld()));
  }
  armgemm_stats_snapshot snap;
  armgemm_stats_get(&snap);
  EXPECT_EQ(snap.gemm_calls, 0ull);

  armgemm_stats_enable();
  ASSERT_EQ(armgemm_stats_enabled(), 1);
  {
    auto a = ag::random_matrix(24, 16, 24), b = ag::random_matrix(16, 20, 25),
         c = ag::random_matrix(24, 20, 26);
    cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, 24, 20, 16, 1.0, a.data(),
                static_cast<int>(a.ld()), b.data(), static_cast<int>(b.ld()), 1.0, c.data(),
                static_cast<int>(c.ld()));
  }
  armgemm_stats_get(&snap);
  armgemm_stats_disable();

  if (ag::obs::stats_compiled_in) {
    EXPECT_EQ(snap.gemm_calls, 1ull);
    EXPECT_DOUBLE_EQ(snap.flops, 2.0 * 24 * 20 * 16);
    EXPECT_GT(snap.kernel_calls, 0ull);
    EXPECT_GT(snap.gamma, 0.0);
  } else {
    EXPECT_EQ(snap.gemm_calls, 0ull);
  }

  const char* path = "test_obs_stats_capi.json";
  ASSERT_EQ(armgemm_stats_write_json(path), 0);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"totals\""), std::string::npos);
  std::remove(path);
  armgemm_stats_reset();
  armgemm_config_set("ARMGEMM_SMALL_MNK", prev_small.c_str());
  EXPECT_EQ(ag::knob_text(ag::Knob::kSmallMnk), prev_small);
}

// A snapshot taken while calls are in flight must never mix the fields
// of one recording: a dgemm call's add updates gemm_calls, flops and
// total_seconds inside one seqlock write section, so every snapshot sees either all of
// a call's contributions or none. The writer records calls with flops
// exactly 2.0 and seconds exactly 1.0 per call; any snapshot where
// flops != 2 * gemm_calls (or seconds != gemm_calls) is a torn read of
// the kind the plain relaxed-load snapshot allowed.
const ag::obs::ThreadSlot::Counters& kCall = ag::obs::sinks_of(ag::obs::Boundary::kCall).stats;

TEST(GemmStatsSnapshot, NoTornReadsUnderConcurrentRecording) {
  ag::obs::GemmStats stats(1);
  ag::obs::ThreadSlot& slot = stats.slot(0);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    // do-while: even if the reader finishes its iterations before this
    // thread is first scheduled, at least one call gets recorded.
    do {
      slot.add(kCall, 1.0, {.flops = 2.0});
      // Brief quiescent window between calls (as real traffic has), so
      // the bounded-retry reader can always find a consistent read.
      for (volatile int spin = 0; spin < 64; ++spin) {
      }
    } while (!stop.load(std::memory_order_relaxed));
  });

  int checked = 0;
  for (int i = 0; i < 20000; ++i) {
    const ag::obs::LayerCounters c = stats.totals();
    const double calls = static_cast<double>(c.gemm_calls);
    EXPECT_DOUBLE_EQ(c.flops, 2.0 * calls)
        << "snapshot tore between flops and gemm_calls at iteration " << i;
    EXPECT_DOUBLE_EQ(c.total_seconds, calls)
        << "snapshot tore between total_seconds and gemm_calls at iteration " << i;
    ++checked;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(checked, 20000);
  EXPECT_GT(stats.totals().gemm_calls, 0ull);
}

// Same property across reset(): a reset is itself a seqlock write, so a
// concurrent snapshot lands fully before or fully after it — never a mix
// of zeroed and pre-reset fields.
TEST(GemmStatsSnapshot, ResetIsAtomicAgainstSnapshots) {
  ag::obs::GemmStats stats(1);
  ag::obs::ThreadSlot& slot = stats.slot(0);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      slot.add(kCall, 1.0, {.flops = 2.0});
      slot.reset();
      for (volatile int spin = 0; spin < 64; ++spin) {
      }
    }
  });

  for (int i = 0; i < 20000; ++i) {
    const ag::obs::LayerCounters c = stats.totals();
    EXPECT_DOUBLE_EQ(c.flops, 2.0 * static_cast<double>(c.gemm_calls));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
