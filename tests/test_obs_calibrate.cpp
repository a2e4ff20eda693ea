// Calibration sanity: each micro-probe returns a physically plausible
// value on whatever silicon runs the tests, the derived CostParams feed
// Eq. (6) unchanged, and the JSON report is machine-readable. Budgets are
// shrunk far below the defaults so the whole file runs in well under a
// second; the assertions are correspondingly loose (orders of magnitude,
// not digits).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/json.hpp"
#include "obs/calibrate.hpp"
#include "obs/pmu.hpp"

namespace {

ag::obs::CalibrationOptions fast_options() {
  ag::obs::CalibrationOptions opts;
  opts.seconds_per_probe = 0.004;
  opts.memory_bytes = 8ll << 20;  // beyond L2 on anything relevant, but quick
  return opts;
}

TEST(ObsCalibrate, ThroughputProbeIsPlausible) {
  const double mu = ag::obs::measure_fma_throughput(fast_options());
  ASSERT_GT(mu, 0.0);
  // 1e-9/mu Gflops: anything from an emulator (0.01) to a vector server
  // core (500) passes; zero, negative or wildly absurd values do not.
  const double gflops = 1e-9 / mu;
  EXPECT_GT(gflops, 0.01);
  EXPECT_LT(gflops, 10000.0);
}

// Leaves `value` in the stack below the caller's frame, where the frames
// (and the red zone) of the caller's next call will sit.
[[gnu::noinline]] void paint_stack(double value) {
  volatile double area[2048];
  for (volatile double& x : area) x = value;
}

// The best of three probes, each run over a stack painted with `paint`.
template <typename Probe>
double best_over_painted_stack(double paint, Probe&& probe) {
  double best = std::numeric_limits<double>::max();
  for (int i = 0; i < 3; ++i) {
    paint_stack(paint);
    best = std::min(best, probe(fast_options()));
  }
  return best;
}

TEST(ObsCalibrate, FmaProbesReadTheirOwnOperandsNotTheStack) {
  // The probes' operands are locals they store themselves. If the
  // compiler dropped those stores and the loops read whatever an earlier
  // frame left there, a subnormal left behind would put every FMA on the
  // microcode-assist path (0.16 against 38 Gflop/s on one x86-64 host).
  const double subnormal = std::numeric_limits<double>::min() / 4;
  for (auto* probe : {&ag::obs::measure_fma_throughput, &ag::obs::measure_fma_latency}) {
    const double after_subnormals = best_over_painted_stack(subnormal, probe);
    const double after_ones = best_over_painted_stack(1.0, probe);
    EXPECT_LT(after_subnormals, 2 * after_ones);
    EXPECT_LT(after_ones, 2 * after_subnormals);
  }
}

TEST(ObsCalibrate, LatencyChainIsNoFasterThanThroughput) {
  const auto opts = fast_options();
  const double mu = ag::obs::measure_fma_throughput(opts);
  const double lat = ag::obs::measure_fma_latency(opts);
  ASSERT_GT(lat, 0.0);
  // One dependent chain cannot beat many independent chains; allow 2x
  // noise margin rather than asserting the clean inequality.
  EXPECT_GT(lat, 0.5 * mu);
}

TEST(ObsCalibrate, MemoryProbeCostsMoreThanAFlop) {
  const auto opts = fast_options();
  const double pi = ag::obs::measure_memory_word_cost(opts);
  const double mu = ag::obs::measure_fma_throughput(opts);
  ASSERT_GT(pi, 0.0);
  // A dependent out-of-cache load is never cheaper than a pipelined FMA.
  EXPECT_GT(pi, mu);
}

TEST(ObsCalibrate, OverlapPsiIsAFraction) {
  double gamma = 0;
  const double psi = ag::obs::measure_overlap_psi(fast_options(), &gamma);
  EXPECT_GE(psi, 0.0);
  EXPECT_LE(psi, 1.0 + 1e-9);
  EXPECT_GT(gamma, 0.0);
}

TEST(ObsCalibrate, FullCalibrationIsConsistent) {
  const ag::obs::CalibrationResult cal = ag::obs::calibrate(fast_options());
  ASSERT_GT(cal.mu, 0.0);
  EXPECT_NEAR(cal.peak_gflops, 1e-9 / cal.mu, 1e-9 / cal.mu * 1e-6);
  EXPECT_GT(cal.pi, 0.0);
  EXPECT_GE(cal.psi_c, 0.0);
  EXPECT_GE(cal.measured_psi, 0.0);
  EXPECT_LE(cal.measured_psi, 1.0 + 1e-9);
  EXPECT_GT(cal.gamma_probe, 0.0);
  EXPECT_GE(cal.cycles_per_fma, 0.0);
  EXPECT_EQ(cal.used_hardware_counters, ag::obs::PmuGroup::hardware_available());

  const ag::model::CostParams p = cal.cost_params(0.25);
  EXPECT_DOUBLE_EQ(p.mu, cal.mu);
  EXPECT_DOUBLE_EQ(p.pi, cal.pi);
  EXPECT_DOUBLE_EQ(p.kappa, 0.25);
}

TEST(ObsCalibrate, ModelCalibrationSkipsLatencyAndCycles) {
  const ag::obs::CalibrationResult cal = ag::obs::calibrate_model(fast_options());
  ASSERT_GT(cal.mu, 0.0);
  EXPECT_NEAR(cal.peak_gflops, 1e-9 / cal.mu, 1e-9 / cal.mu * 1e-6);
  EXPECT_GT(cal.pi, cal.mu);
  EXPECT_GE(cal.psi_c, 0.0);
  EXPECT_GE(cal.measured_psi, 0.0);
  EXPECT_LE(cal.measured_psi, 1.0 + 1e-9);
  EXPECT_EQ(cal.gamma_probe, 1.0);
  EXPECT_EQ(cal.fma_latency_s, 0.0);
  EXPECT_EQ(cal.cycles_per_fma, 0.0);
  EXPECT_FALSE(cal.used_hardware_counters);
}

TEST(ObsCalibrate, ChaseWalksFootprintsOfAnyLineCount) {
  // Line counts off a power of two exercise the chain order's walk back
  // into range; a line the order missed would hold an unset pointer.
  for (const std::int64_t lines : {1025, 1500, 3001}) {
    ag::obs::CalibrationOptions opts = fast_options();
    opts.seconds_per_probe = 0.0005;
    opts.memory_bytes = lines * 64;
    EXPECT_GT(ag::obs::measure_memory_word_cost(opts), 0.0) << lines << " lines";
  }
}

TEST(ObsCalibrate, ForcedFallbackStillCalibrates) {
  const bool saved = ag::obs::pmu_forced_fallback();
  ag::obs::pmu_set_forced_fallback(true);
  const ag::obs::CalibrationResult cal = ag::obs::calibrate(fast_options());
  ag::obs::pmu_set_forced_fallback(saved);
  EXPECT_FALSE(cal.used_hardware_counters);
  EXPECT_GT(cal.mu, 0.0);
  EXPECT_GT(cal.pi, 0.0);
}

TEST(ObsCalibrate, ToJsonParsesWithExpectedKeys) {
  const ag::obs::CalibrationResult cal = ag::obs::calibrate(fast_options());
  std::string err;
  const ag::JsonValue doc = ag::JsonValue::parse(cal.to_json(), &err);
  ASSERT_TRUE(doc.is_object()) << err;
  for (const char* key : {"mu", "fma_latency_s", "pi", "psi_c", "measured_psi",
                          "gamma_probe", "peak_gflops", "cycles_per_fma"})
    EXPECT_TRUE(doc.has(key)) << key;
  EXPECT_TRUE(doc.has("used_hardware_counters"));
  EXPECT_GT(doc["peak_gflops"].as_number(), 0.0);
  EXPECT_NEAR(doc["mu"].as_number(), cal.mu, cal.mu * 1e-3);
}

}  // namespace
