// End-to-end tests for the black-box forensics pipeline (obs/forensics):
// injected drift and slow-call anomalies must each produce exactly one
// schema-valid bundle under the rate limit, manual captures bypass the
// limit, concurrent anomalies resolve to one winner (CAS-claimed clock),
// and a -DARMGEMM_STATS=OFF build produces nothing at all.
//
// Injection recipes mirror bench/forensics_inject.cpp: drift by swapping
// the injected perf model mid-run (a different same-class shape dodges
// the per-thread expected-Gflops memo), slow calls by a pathologically
// blocked context (kc=1, mc=8, nc=6) against a warm class p99.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "model/perf_model.hpp"
#include "obs/forensics.hpp"
#include "obs/telemetry.hpp"

namespace {

using ag::obs::ForensicsReason;
using ag::obs::ForensicsStats;

constexpr int kDrift = static_cast<int>(ForensicsReason::kDrift);
constexpr int kSlowCall = static_cast<int>(ForensicsReason::kSlowCall);
constexpr int kManual = static_cast<int>(ForensicsReason::kManual);

void run_square(ag::Context& ctx, std::int64_t s, int calls, unsigned seed = 11) {
  auto a = ag::random_matrix(s, s, seed);
  auto b = ag::random_matrix(s, s, seed + 1);
  auto c = ag::random_matrix(s, s, seed + 2);
  for (int i = 0; i < calls; ++i)
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s, 1.0,
              a.data(), a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
}

/// Serial context whose degenerate blocking (a rank-1 update per GEBP
/// call) makes a 96^3 call several hundred times slower than a warm 48^3
/// call: the deterministic "slow call" for threshold tests. On a 4-core
/// AVX2 VM it took about 5 ms; with kc = 8 it took 0.75 ms, which two
/// quarter-millisecond scheduler outliers in the warm window could lift
/// 3 x p99 above.
ag::Context pathological_context() {
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  ag::BlockSizes tiny;
  tiny.kc = 1;
  tiny.mc = 8;
  tiny.nc = 6;
  ctx.set_block_sizes(tiny);
  return ctx;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Test fixture: telemetry on with an injected honest model, forensics
/// counters zeroed, every knob restored on teardown.
class ForensicsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled out";
    prev_metrics_ = ag::metrics_path();
    prev_dir_ = ag::forensics_dir();
    prev_interval_ = ag::forensics_interval_s();
    prev_factor_ = ag::slow_call_factor();
    prev_drift_ = ag::drift_threshold();
    ag::set_metrics_path("");
    ag::set_forensics_dir("");
    ag::set_forensics_interval_s(3600.0);
    ag::set_slow_call_factor(0.0);
    ag::set_drift_threshold(1000.0);
    ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
    ag::obs::telemetry_enable();
    ag::obs::telemetry_reset();
  }

  void TearDown() override {
    if (!ag::obs::stats_compiled_in) return;
    ag::obs::telemetry_disable();
    ag::obs::telemetry_reset();
    ag::set_metrics_path(prev_metrics_);
    ag::set_forensics_dir(prev_dir_);
    ag::set_forensics_interval_s(prev_interval_);
    ag::set_slow_call_factor(prev_factor_);
    ag::set_drift_threshold(prev_drift_);
  }

  /// Fresh per-test bundle directory under the gtest temp root.
  std::string make_bundle_dir(const char* name) {
    const std::string dir = testing::TempDir() + "armgemm_forensics_" + name;
    ::mkdir(dir.c_str(), 0755);
    // Clear bundles from a previous run of the same test binary.
    for (int seq = 0; seq < 64; ++seq)
      for (const char* reason : {"drift", "slow_call", "manual"})
        ::remove((dir + "/forensics-" + std::to_string(seq) + "-" + reason + ".json").c_str());
    return dir;
  }

  /// Warms one lane's square/d5 p99 with steady 48^3 calls (prime first
  /// so cold-start outliers don't inflate the reference quantile).
  void warm_slow_class(ag::Context& ctx) {
    run_square(ctx, 48, 20);
    ag::obs::telemetry_reset();
    run_square(ctx, 48, 150);
  }

 private:
  std::string prev_metrics_, prev_dir_;
  double prev_interval_ = 60.0, prev_factor_ = 8.0, prev_drift_ = 0.25;
};

TEST_F(ForensicsTest, InjectedDriftProducesOneSchemaValidBundle) {
  const std::string dir = make_bundle_dir("drift");
  ag::set_forensics_dir(dir);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);

  // Baseline under a loose threshold (warm-up noise must not trigger),
  // then sabotage the model and tighten: the measured/expected ratio
  // jumps ~100x and the detector flags the step.
  ag::set_drift_threshold(5.0);
  run_square(ctx, 96, 20);
  ag::obs::telemetry_reset();
  run_square(ctx, 96, 60);
  ASSERT_EQ(0u, ag::obs::telemetry_anomaly_count()) << "baseline drifted";
  ag::set_drift_threshold(0.25);
  ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-8, 1e-9, 0.125}, 1.0);
  for (int i = 0; i < 200 && ag::obs::telemetry_anomaly_count() == 0; ++i)
    run_square(ctx, 80, 1, 31);
  ASSERT_GT(ag::obs::telemetry_anomaly_count(), 0u) << "drift never flagged";

  const ForensicsStats s = ag::obs::forensics_stats();
  EXPECT_EQ(1u, s.captures[kDrift]);
  EXPECT_EQ(0u, s.captures[kSlowCall]);
  ASSERT_EQ(1u, s.written);
  EXPECT_EQ("drift", s.last_reason);
  EXPECT_GT(s.last_wall_seconds, 0.0);
  EXPECT_FALSE(s.last_top_phase.empty());

  const std::string bundle = slurp(s.last_path);
  ASSERT_FALSE(bundle.empty()) << s.last_path;
  EXPECT_NE(std::string::npos, bundle.find("\"schema\":\"armgemm-forensics/1\""));
  EXPECT_NE(std::string::npos, bundle.find("\"reason\":\"drift\""));
  EXPECT_NE(std::string::npos, bundle.find("\"flight\":["));
  // The on-disk bundle is the in-memory JSON plus the POSIX trailing
  // newline the writer appends.
  EXPECT_EQ(bundle, ag::obs::forensics_last_bundle_json() + "\n");
}

TEST_F(ForensicsTest, InjectedSlowCallCapturesOnceUnderRateLimit) {
  const std::string dir = make_bundle_dir("slow");
  ag::set_forensics_dir(dir);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  warm_slow_class(ctx);

  ag::set_slow_call_factor(3.0);
  ag::Context slow_ctx = pathological_context();
  // Two detections are needed (the second exercises the rate limit). On
  // a plain build every pathological call clears 3 x p99 with a ~30x
  // margin; under TSan the warm window's p99 is inflated by multi-ms
  // instrumentation outliers, so allow a bounded retry. The loop stays
  // well short of the 64-record p99 refresh, so the pathological calls
  // never poison the reference quantile they are measured against.
  for (int i = 0; i < 12 && ag::obs::forensics_stats().slow_calls < 2; ++i)
    run_square(slow_ctx, 96, 1);
  ag::set_slow_call_factor(0.0);

  const ForensicsStats s = ag::obs::forensics_stats();
  EXPECT_GE(s.slow_calls, 2u);
  EXPECT_EQ(1u, s.captures[kSlowCall]) << "rate limit must keep one bundle";
  EXPECT_GE(s.suppressed, 1u);
  ASSERT_EQ(1u, s.written);
  EXPECT_EQ("slow_call", s.last_reason);

  const std::string bundle = slurp(s.last_path);
  ASSERT_FALSE(bundle.empty()) << s.last_path;
  EXPECT_NE(std::string::npos, bundle.find("\"reason\":\"slow_call\""));
  EXPECT_NE(std::string::npos, bundle.find("\"p99_seconds\":"));
  EXPECT_NE(std::string::npos, bundle.find("\"factor\":3"));
}

TEST_F(ForensicsTest, ManualCaptureBypassesRateLimitAndNeedsNoDisk) {
  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  run_square(ctx, 64, 4);
  // Two manual captures inside one rate-limit interval: both must land
  // (the limit only applies to automatic triggers), and with no
  // forensics dir configured the bundle lives in memory only.
  EXPECT_EQ(0, ag::obs::telemetry_forensics_capture());
  EXPECT_EQ(0, ag::obs::telemetry_forensics_capture());
  const ForensicsStats s = ag::obs::forensics_stats();
  EXPECT_EQ(2u, s.captures[kManual]);
  EXPECT_EQ(0u, s.suppressed);
  EXPECT_EQ(0u, s.written);
  EXPECT_TRUE(s.last_path.empty());
  EXPECT_NE(std::string::npos,
            ag::obs::forensics_last_bundle_json().find("\"reason\":\"manual\""));
}

TEST_F(ForensicsTest, ConcurrentSlowCallsElectExactlyOneCapture) {
  const std::string dir = make_bundle_dir("concurrent");
  ag::set_forensics_dir(dir);
  constexpr int kThreads = 4;

  // Slow-call state is per recording lane, so each thread warms its own
  // lane, then all release their pathological call together: the CAS on
  // the rate-limit clock must elect exactly one bundle, the rest count
  // as suppressed. Readers hammer the snapshot paths meanwhile (the
  // interesting TSan surface: capture vs stats vs last-bundle).
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ag::Context ctx(ag::KernelShape{8, 6}, 1);
      run_square(ctx, 48, 150, 100 + static_cast<unsigned>(t));
      ag::Context slow_ctx = pathological_context();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // First iteration is the barrier-released race; the bounded
      // retries absorb marginal detections under sanitizer jitter (see
      // the rate-limit test above) without crossing the p99 refresh.
      // Two detections anywhere are enough to exercise the election.
      for (int i = 0; i < 12; ++i) {
        run_square(slow_ctx, 96, 1, 200 + static_cast<unsigned>(t * 16 + i));
        if (ag::obs::forensics_stats().slow_calls >= 2) break;
      }
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  ag::set_slow_call_factor(3.0);
  go.store(true, std::memory_order_release);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)ag::obs::forensics_stats();
      (void)ag::obs::forensics_last_bundle_json();
      (void)ag::obs::forensics_summary_json();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  ag::set_slow_call_factor(0.0);

  const ForensicsStats s = ag::obs::forensics_stats();
  EXPECT_GE(s.slow_calls, 2u);
  EXPECT_EQ(1u, s.captures[kSlowCall]);
  // Every detection either won the CAS-claimed clock or was suppressed:
  // the accounting must balance exactly, with exactly one winner.
  EXPECT_EQ(s.slow_calls, s.captures[kSlowCall] + s.suppressed);
  EXPECT_EQ(1u, s.written);
}

TEST(ForensicsStatsOff, CompiledOutBuildIsInert) {
  if (ag::obs::stats_compiled_in) GTEST_SKIP() << "stats compiled in";
  EXPECT_EQ(-1, ag::obs::telemetry_forensics_capture());
  const ForensicsStats s = ag::obs::forensics_stats();
  EXPECT_EQ(0u, s.total_captures());
  EXPECT_EQ(0u, s.written);
  EXPECT_TRUE(ag::obs::forensics_last_bundle_json().empty());
}

}  // namespace
