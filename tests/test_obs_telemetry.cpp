// Serving-telemetry layer (obs/telemetry): histogram bucket math,
// model-drift detection on synthetic series, shape classification, the
// end-to-end record -> snapshot -> Prometheus/JSON exposition path, the
// flight-recorder ring, the SIGUSR2 dump, concurrent recording (the
// ThreadSanitizer target), and the C API mirror.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "capi/armgemm_cblas.h"
#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "obs/drift.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "scoped_knobs.hpp"

namespace obs = ag::obs;
using ag::Context;
using ag::index_t;
using ag::Layout;
using ag::Trans;

// ---- latency bucket math -------------------------------------------------

TEST(TelemetryHistogramBuckets, LowLatenciesAreExact) {
  for (std::uint64_t ns = 0; ns < 4; ++ns) {
    EXPECT_EQ(obs::latency_bucket(ns), static_cast<int>(ns));
    EXPECT_EQ(obs::latency_bucket_lower_ns(static_cast<int>(ns)), ns);
  }
  EXPECT_EQ(obs::latency_bucket(4), 4);
}

TEST(TelemetryHistogramBuckets, BoundsRoundTrip) {
  // Every non-overflow bucket: its inclusive lower bound and its last
  // nanosecond both map back to the same index, and bounds are strictly
  // increasing (no gaps, no overlaps).
  for (int b = 0; b < obs::kLatencyBuckets - 1; ++b) {
    const std::uint64_t lo = obs::latency_bucket_lower_ns(b);
    const std::uint64_t hi = obs::latency_bucket_upper_ns(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(obs::latency_bucket(lo), b) << "lower bound of bucket " << b;
    EXPECT_EQ(obs::latency_bucket(hi - 1), b) << "last ns of bucket " << b;
    EXPECT_EQ(obs::latency_bucket(hi), b + 1) << "first ns past bucket " << b;
  }
}

TEST(TelemetryHistogramBuckets, MonotoneAndTotal) {
  // Dense sweep over the low range plus a geometric sweep to the top:
  // larger durations never map to smaller buckets.
  int prev = 0;
  for (std::uint64_t ns = 0; ns <= 4096; ++ns) {
    const int b = obs::latency_bucket(ns);
    ASSERT_GE(b, prev) << "ns=" << ns;
    prev = b;
  }
  for (std::uint64_t ns = 4096; ns < (std::uint64_t{1} << 62); ns += ns / 3) {
    const int b = obs::latency_bucket(ns);
    ASSERT_GE(b, prev) << "ns=" << ns;
    ASSERT_LT(b, obs::kLatencyBuckets);
    prev = b;
  }
}

TEST(TelemetryHistogramBuckets, OverflowBucket) {
  const int last = obs::kLatencyBuckets - 1;
  EXPECT_EQ(obs::latency_bucket(std::numeric_limits<std::uint64_t>::max()), last);
  EXPECT_EQ(obs::latency_bucket(obs::latency_bucket_lower_ns(last)), last);
  EXPECT_EQ(obs::latency_bucket(obs::latency_bucket_lower_ns(last) - 1), last - 1);
}

TEST(TelemetryHistogramBuckets, RelativeWidthBounded) {
  // The HDR-lite geometry promises <= 25% relative bucket width once past
  // the exact-value buckets.
  for (int b = 4; b < obs::kLatencyBuckets - 1; ++b) {
    const double lo = static_cast<double>(obs::latency_bucket_lower_ns(b));
    const double hi = static_cast<double>(obs::latency_bucket_upper_ns(b));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "bucket " << b;
  }
}

TEST(TelemetryHistogramBuckets, EfficiencyBuckets) {
  EXPECT_EQ(obs::efficiency_bucket(-1.0), 0);
  EXPECT_EQ(obs::efficiency_bucket(0.0), 0);
  EXPECT_EQ(obs::efficiency_bucket(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(obs::efficiency_bucket(0.019), 0);
  EXPECT_EQ(obs::efficiency_bucket(0.021), 1);
  EXPECT_EQ(obs::efficiency_bucket(0.5), 25);
  EXPECT_EQ(obs::efficiency_bucket(1.27), obs::kEfficiencyBuckets - 1);
  EXPECT_EQ(obs::efficiency_bucket(50.0), obs::kEfficiencyBuckets - 1);
  EXPECT_DOUBLE_EQ(obs::efficiency_bucket_lower(25), 0.5);
  // Monotone over a dense sweep.
  int prev = 0;
  for (double e = 0.0; e < 2.0; e += 0.001) {
    const int b = obs::efficiency_bucket(e);
    ASSERT_GE(b, prev) << "eff=" << e;
    prev = b;
  }
}

namespace {

// Deterministic pseudo-random histogram for the merge-law tests.
obs::LatencyHistogram synthetic_hist(std::uint64_t seed) {
  obs::LatencyHistogram h;
  std::uint64_t x = seed * 2654435761u + 1;
  for (int i = 0; i < obs::kLatencyBuckets; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    h.counts[i] = (x >> 33) % 7;
    h.total += h.counts[i];
  }
  h.sum = static_cast<double>(seed + 1) * 0.125;
  h.max = static_cast<double>((seed * 13) % 97) * 1e-6;
  return h;
}

void expect_same(const obs::LatencyHistogram& a, const obs::LatencyHistogram& b) {
  for (int i = 0; i < obs::kLatencyBuckets; ++i) ASSERT_EQ(a.counts[i], b.counts[i]) << i;
  EXPECT_EQ(a.total, b.total);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

}  // namespace

TEST(TelemetryHistogramMerge, AssociativeAndCommutative) {
  const auto a = synthetic_hist(1), b = synthetic_hist(2), c = synthetic_hist(3);

  obs::LatencyHistogram left = a;
  left += b;
  left += c;  // (a + b) + c
  obs::LatencyHistogram bc = b;
  bc += c;
  obs::LatencyHistogram right = a;
  right += bc;  // a + (b + c)
  expect_same(left, right);

  obs::LatencyHistogram ab = a;
  ab += b;
  obs::LatencyHistogram ba = b;
  ba += a;
  expect_same(ab, ba);

  // Identity: merging an empty histogram changes nothing.
  obs::LatencyHistogram id = a;
  id += obs::LatencyHistogram{};
  expect_same(id, a);
}

TEST(TelemetryHistogramMerge, AtomicSnapshotScales) {
  obs::AtomicHistogram<obs::kLatencyBuckets> h;
  h.record(obs::latency_bucket(1000), 1000);
  h.record(obs::latency_bucket(2000), 2000);
  h.record(obs::latency_bucket(500), 500);
  const auto s = h.snapshot(1e-9);
  EXPECT_EQ(s.total, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 3500e-9);
  EXPECT_DOUBLE_EQ(s.max, 2000e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 3500e-9 / 3);
  h.reset();
  EXPECT_EQ(h.snapshot(1e-9).total, 0u);
}

TEST(TelemetryHistogramQuantile, EmptyAndOverflow) {
  obs::LatencyHistogram h;
  EXPECT_DOUBLE_EQ(obs::latency_quantile(h, 0.5), 0.0);

  // A lone overflow-bucket sample reports the recorded max for every q.
  h.counts[obs::kLatencyBuckets - 1] = 1;
  h.total = 1;
  h.sum = h.max = 9.5;
  EXPECT_DOUBLE_EQ(obs::latency_quantile(h, 0.5), 9.5);
  EXPECT_DOUBLE_EQ(obs::latency_quantile(h, 1.0), 9.5);
}

TEST(TelemetryHistogramQuantile, OrderedAndClamped) {
  obs::LatencyHistogram h;
  auto put = [&](std::uint64_t ns, std::uint64_t count) {
    h.counts[static_cast<std::size_t>(obs::latency_bucket(ns))] += count;
    h.total += count;
    h.sum += static_cast<double>(ns * count) * 1e-9;
    if (static_cast<double>(ns) * 1e-9 > h.max) h.max = static_cast<double>(ns) * 1e-9;
  };
  put(1000, 50);
  put(10000, 40);
  put(100000, 9);
  put(1000000, 1);

  const double p50 = obs::latency_quantile(h, 0.50);
  const double p95 = obs::latency_quantile(h, 0.95);
  const double p99 = obs::latency_quantile(h, 0.99);
  const double p100 = obs::latency_quantile(h, 1.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p100);
  EXPECT_LE(p100, h.max);
  // p50 lands in the 1000 ns bucket (within its 25% width), p99 in the
  // 100000 ns bucket.
  EXPECT_NEAR(p50, 1000e-9, 1000e-9 * 0.3);
  EXPECT_NEAR(p99, 100000e-9, 100000e-9 * 0.3);
}

// ---- drift detector ------------------------------------------------------

TEST(TelemetryDrift, NoDriftStaysQuiet) {
  obs::DriftDetector d;
  for (int i = 0; i < 2000; ++i) {
    const double ratio = (i & 1) ? 1.03 : 0.97;  // bounded noise around 1
    ASSERT_EQ(d.observe(ratio), obs::DriftDetector::Event::kNone) << "sample " << i;
  }
  EXPECT_FALSE(d.in_drift());
  EXPECT_EQ(d.anomalies(), 0u);
  EXPECT_NEAR(d.fast_ewma(), 1.0, 0.05);
  EXPECT_NEAR(d.reference_ewma(), 1.0, 0.05);
}

TEST(TelemetryDrift, IgnoresBadSamples) {
  obs::DriftDetector d;
  EXPECT_EQ(d.observe(std::numeric_limits<double>::quiet_NaN()),
            obs::DriftDetector::Event::kNone);
  EXPECT_EQ(d.observe(std::numeric_limits<double>::infinity()),
            obs::DriftDetector::Event::kNone);
  EXPECT_EQ(d.observe(0.0), obs::DriftDetector::Event::kNone);
  EXPECT_EQ(d.observe(-1.0), obs::DriftDetector::Event::kNone);
  EXPECT_EQ(d.samples(), 0u);
}

TEST(TelemetryDrift, StepDriftTriggersOnce) {
  obs::DriftDetector d;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(d.observe(1.0), obs::DriftDetector::Event::kNone) << "sample " << i;
  }
  // Sustained 40% efficiency loss: the fast EWMA (alpha 0.08, ~12-call
  // memory) must cross the 25% divergence threshold within a few dozen
  // calls, and only fire a single onset.
  int trigger_at = -1;
  for (int i = 0; i < 300; ++i) {
    const auto e = d.observe(0.6);
    if (e == obs::DriftDetector::Event::kTriggered) {
      trigger_at = i;
      break;
    }
    ASSERT_EQ(e, obs::DriftDetector::Event::kNone);
  }
  ASSERT_GE(trigger_at, 1) << "step drift never triggered";
  ASSERT_LT(trigger_at, 60) << "step drift took too long to trigger";
  EXPECT_TRUE(d.in_drift());
  EXPECT_EQ(d.anomalies(), 1u);
  // Still in drift: no second onset while the divergence persists.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(d.observe(0.6), obs::DriftDetector::Event::kNone);
  }
  EXPECT_EQ(d.anomalies(), 1u);
}

TEST(TelemetryDrift, ReferenceFrozenWhileInDrift) {
  obs::DriftDetector d;
  for (int i = 0; i < 200; ++i) d.observe(1.0);
  while (!d.in_drift()) d.observe(0.5);
  const double frozen = d.reference_ewma();
  for (int i = 0; i < 500; ++i) d.observe(0.5);
  // The anomaly must not be absorbed into the baseline it is measured
  // against.
  EXPECT_DOUBLE_EQ(d.reference_ewma(), frozen);
  EXPECT_TRUE(d.in_drift());
}

TEST(TelemetryDrift, RecoversAndRearms) {
  obs::DriftDetector d;
  for (int i = 0; i < 200; ++i) d.observe(1.0);
  while (!d.in_drift()) d.observe(0.5);

  int recover_at = -1;
  for (int i = 0; i < 500; ++i) {
    const auto e = d.observe(1.0);
    if (e == obs::DriftDetector::Event::kRecovered) {
      recover_at = i;
      break;
    }
    ASSERT_EQ(e, obs::DriftDetector::Event::kNone);
  }
  ASSERT_GE(recover_at, 0) << "never recovered after the ratio returned to 1";
  EXPECT_FALSE(d.in_drift());
  EXPECT_EQ(d.anomalies(), 1u);

  // Re-armed: a second sustained step fires a second onset.
  for (int i = 0; i < 200; ++i) d.observe(1.0);
  bool second = false;
  for (int i = 0; i < 300 && !second; ++i) {
    second = d.observe(0.5) == obs::DriftDetector::Event::kTriggered;
  }
  EXPECT_TRUE(second);
  EXPECT_EQ(d.anomalies(), 2u);
}

TEST(TelemetryDrift, WarmupSuppressesEarlyTrigger) {
  obs::DriftConfig cfg;
  cfg.min_samples = 32;
  obs::DriftDetector d(cfg);
  // Divergence appears from sample 2 on; the detector must sit out the
  // warm-up window regardless.
  d.observe(1.0);
  std::uint64_t trigger_sample = 0;
  for (int i = 0; i < 400 && trigger_sample == 0; ++i) {
    if (d.observe(0.3) == obs::DriftDetector::Event::kTriggered) trigger_sample = d.samples();
  }
  ASSERT_GT(trigger_sample, 0u);
  EXPECT_GE(trigger_sample, cfg.min_samples);
}

TEST(TelemetryDrift, ResetClearsState) {
  obs::DriftDetector d;
  for (int i = 0; i < 200; ++i) d.observe(1.0);
  while (!d.in_drift()) d.observe(0.5);
  d.reset();
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_EQ(d.anomalies(), 0u);
  EXPECT_FALSE(d.in_drift());
  EXPECT_DOUBLE_EQ(d.divergence(), 0.0);
}

// ---- shape classification ------------------------------------------------

TEST(TelemetryShapeClass, ClassifyKindsAndDecades) {
  const std::int64_t small_t = ag::small_gemm_mnk();
  ag::set_knob(ag::Knob::kSmallMnk, 32);  // deterministic small threshold: 32^3

  auto kind = [](std::int64_t m, std::int64_t n, std::int64_t k) {
    return obs::ShapeClass::classify(m, n, k).kind;
  };
  EXPECT_EQ(kind(8, 8, 8), obs::ShapeKind::kSmall);
  EXPECT_EQ(kind(32, 32, 32), obs::ShapeKind::kSmall);
  EXPECT_EQ(kind(1024, 8, 8), obs::ShapeKind::kSkinny);
  EXPECT_EQ(kind(48, 400, 64), obs::ShapeKind::kSkinny);
  EXPECT_EQ(kind(100, 100, 100), obs::ShapeKind::kSquare);
  EXPECT_EQ(kind(200, 150, 100), obs::ShapeKind::kSquare);  // 2x spread: not skinny
  EXPECT_EQ(kind(512, 512, 512), obs::ShapeKind::kLarge);
  EXPECT_EQ(kind(256, 256, 256), obs::ShapeKind::kLarge);  // boundary: exactly 256^3
  // Volume alone does not make a skinny call "large".
  EXPECT_EQ(kind(1 << 20, 8, 8), obs::ShapeKind::kSkinny);

  EXPECT_EQ(obs::ShapeClass::classify(100, 100, 100).decade, 6);  // 1e6
  EXPECT_EQ(obs::ShapeClass::classify(10, 10, 10).decade, 3);
  EXPECT_EQ(obs::ShapeClass::classify(1, 1, 1).decade, 0);
  // Decades clamp at the table edge instead of indexing out of range.
  EXPECT_EQ(obs::ShapeClass::classify(1 << 20, 1 << 20, 1 << 20).decade,
            obs::kShapeDecades - 1);

  ag::set_knob(ag::Knob::kSmallMnk, small_t);
}

TEST(TelemetryShapeClass, IndexRoundTripAndLabels) {
  for (int i = 0; i < obs::kShapeClasses; ++i) {
    const auto sc = obs::ShapeClass::from_index(i);
    EXPECT_EQ(sc.index(), i);
    const std::string label = sc.label();
    EXPECT_NE(label.find("/d"), std::string::npos) << label;
    EXPECT_NE(std::string(obs::to_string(sc.kind)), "");
  }
}

// ---- end-to-end recording / exposition -----------------------------------

namespace {

class TelemetryE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::stats_compiled_in) GTEST_SKIP() << "built with -DARMGEMM_STATS=OFF";
    saved_flight_depth_ = ag::flight_depth();
    saved_metrics_path_ = ag::metrics_path();
    ag::set_knob(ag::Knob::kMetricsPath, "");
    // Inject a deterministic Section III model so enable() never
    // calibrates inside the test process.
    obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
    obs::telemetry_enable();
    obs::telemetry_reset();
  }

  void TearDown() override {
    if (!obs::stats_compiled_in) return;
    obs::telemetry_disable();
    ag::set_knob(ag::Knob::kFlightDepth, saved_flight_depth_);
    ag::set_knob(ag::Knob::kMetricsPath, saved_metrics_path_);
    obs::telemetry_reset();
  }

  // Runs `count` identical column-major dgemm calls of size s^3.
  static void run_burst(int count, index_t s, int threads) {
    Context ctx(ag::KernelShape{8, 6}, threads);
    auto a = ag::random_matrix(s, s, 301);
    auto b = ag::random_matrix(s, s, 302);
    auto c = ag::random_matrix(s, s, 303);
    for (int i = 0; i < count; ++i) {
      ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, s, s, s, 1.0, a.data(),
                a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
    }
  }

  std::int64_t saved_flight_depth_ = 256;
  std::string saved_metrics_path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST_F(TelemetryE2E, RecordsCallsIntoSnapshot) {
  // The 2-thread burst must wait at barriers, which only the blocked
  // path has.
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  run_burst(8, 64, 1);
  run_burst(4, 160, 2);

  const auto snap = obs::telemetry_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.total_calls, 12u);
  EXPECT_GE(snap.uptime_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.peak_gflops_per_core, 10.0);

  std::uint64_t class_calls = 0;
  bool drift_fed = false;
  for (const auto& c : snap.classes) {
    class_calls += c.calls;
    EXPECT_EQ(c.latency.total, c.calls);
    EXPECT_EQ(c.efficiency.total, c.calls);
    EXPECT_GT(c.latency.max, 0.0);
    EXPECT_LE(c.p50, c.p95);
    EXPECT_LE(c.p95, c.p99);
    EXPECT_LE(c.p99, c.latency.max);
    if (c.drift_samples > 0) drift_fed = true;
  }
  EXPECT_EQ(class_calls, 12u);
  EXPECT_TRUE(drift_fed) << "no class fed the drift detector";

  // Flight: every call retained (depth default 256 >> 12), time-ordered.
  EXPECT_EQ(snap.flight_recorded, 12u);
  ASSERT_EQ(snap.flight.size(), 12u);
  for (std::size_t i = 1; i < snap.flight.size(); ++i) {
    EXPECT_LE(snap.flight[i - 1].t, snap.flight[i].t);
  }
  // The parallel burst shows up in at least one worker barrier-wait lane.
  EXPECT_GE(snap.workers.size(), 1u);
}

TEST_F(TelemetryE2E, JsonRenderRoundTripsThroughParser) {
  run_burst(6, 48, 1);
  const auto snap = obs::telemetry_snapshot();

  std::string err;
  const auto doc = ag::JsonValue::parse(obs::telemetry_render_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc["schema"].as_string(), "armgemm-telemetry/1");
  EXPECT_TRUE(doc["enabled"].as_bool());
  EXPECT_EQ(static_cast<std::uint64_t>(doc["total_calls"].as_number()), snap.total_calls);
  ASSERT_TRUE(doc["classes"].is_array());
  EXPECT_EQ(doc["classes"].size(), snap.classes.size());
  ASSERT_TRUE(doc["flight"].is_array());
  EXPECT_EQ(doc["flight"].size(), snap.flight.size());
  for (const auto& rec : doc["flight"].items()) {
    EXPECT_EQ(static_cast<index_t>(rec["m"].as_number()), 48);
    EXPECT_GT(rec["seconds"].as_number(), 0.0);
    EXPECT_FALSE(rec["schedule"].as_string().empty());
  }
}

TEST_F(TelemetryE2E, PrometheusRenderHasCoreFamilies) {
  run_burst(5, 48, 1);
  const std::string prom = obs::telemetry_render_prometheus();

  for (const char* needle :
       {"# TYPE armgemm_call_latency_seconds histogram", "armgemm_calls_total",
        "le=\"+Inf\"", "armgemm_call_latency_seconds_count", "armgemm_telemetry_enabled 1",
        "armgemm_drift_anomalies_total", "armgemm_flight_records_total",
        "armgemm_peak_gflops_per_core"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "missing: " << needle;
  }
  // Text format 0.0.4: every non-comment line is "name{...} value".
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST_F(TelemetryE2E, WriteMetricsEmitsBothFiles) {
  // No configured path and no argument: refuses instead of guessing.
  EXPECT_EQ(obs::telemetry_write_metrics(""), -1);

  run_burst(3, 32, 1);
  const std::string path = "telemetry_e2e_metrics.prom";
  ASSERT_EQ(obs::telemetry_write_metrics(path), 0);

  const std::string prom = slurp(path);
  EXPECT_NE(prom.find("armgemm_calls_total"), std::string::npos);
  std::string err;
  const auto doc = ag::JsonValue::parse(slurp(path + ".json"), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(doc["schema"].as_string(), "armgemm-telemetry/1");

  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST_F(TelemetryE2E, FlightRingWrapsKeepingNewest) {
  ag::set_knob(ag::Knob::kFlightDepth, 8);
  obs::telemetry_reset();  // re-sizes the rings to the knob

  // 20 calls with distinct k so the retained tail is identifiable.
  const index_t s = 16, kmax = 20;
  auto a = ag::random_matrix(s, kmax, 401);
  auto b = ag::random_matrix(kmax, s, 402);
  auto c = ag::random_matrix(s, s, 403);
  Context ctx(ag::KernelShape{8, 6}, 1);
  for (index_t k = 1; k <= kmax; ++k) {
    ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, s, s, k, 1.0, a.data(),
              a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
  }

  const auto snap = obs::telemetry_snapshot();
  EXPECT_EQ(snap.flight_recorded, 20u);
  ASSERT_EQ(snap.flight.size(), 8u);
  for (std::size_t i = 0; i < snap.flight.size(); ++i) {
    EXPECT_EQ(snap.flight[i].k, static_cast<index_t>(13 + i));  // oldest-first tail
  }

  const std::string path = "telemetry_e2e_flight.json";
  ASSERT_EQ(obs::telemetry_dump_flight(path), 0);
  std::string err;
  const auto doc = ag::JsonValue::parse(slurp(path), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(doc.is_array());
  EXPECT_EQ(doc.size(), 8u);
  std::remove(path.c_str());
}

#if !defined(_WIN32)
TEST_F(TelemetryE2E, Sigusr2DumpsMetricsAtNextCall) {
  const std::string path = "telemetry_e2e_sigusr2.prom";
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  ag::set_knob(ag::Knob::kMetricsPath, path);

  // Multi-threaded burst, then the signal, then one more call to carry
  // out the deferred dump (the handler only sets a flag).
  run_burst(4, 96, 2);
  ASSERT_EQ(std::raise(SIGUSR2), 0);
  run_burst(1, 32, 1);

  std::string err;
  const auto doc = ag::JsonValue::parse(slurp(path + ".json"), &err);
  ASSERT_TRUE(err.empty()) << "dump missing or unparsable: " << err;
  EXPECT_EQ(doc["schema"].as_string(), "armgemm-telemetry/1");
  ASSERT_TRUE(doc["flight"].is_array());
  EXPECT_GE(doc["flight"].size(), 4u);
  for (const auto& rec : doc["flight"].items()) {
    EXPECT_GT(rec["m"].as_number(), 0.0);
    EXPECT_GT(rec["n"].as_number(), 0.0);
    EXPECT_GT(rec["k"].as_number(), 0.0);
  }
  EXPECT_NE(slurp(path).find("armgemm_calls_total"), std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}
#endif

TEST_F(TelemetryE2E, ConcurrentRecordAndSnapshot) {
  // Four recording threads race the snapshot and both expositions; the
  // final merged state must account for every call. This is the suite
  // ThreadSanitizer runs against the telemetry locks and atomics.
  constexpr int kThreads = 4, kCallsPerThread = 50;
  std::atomic<bool> done{false};
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([t] {
      obs::telemetry_register_thread("e2e-recorder-" + std::to_string(t));
      run_burst(kCallsPerThread, 24, 1);
    });
  }
  std::uint64_t snapshots = 0;
  while (!done.load(std::memory_order_relaxed)) {
    const auto snap = obs::telemetry_snapshot();
    (void)obs::telemetry_render_json();
    (void)obs::telemetry_render_prometheus();
    ++snapshots;
    if (snap.total_calls >= kThreads * kCallsPerThread) break;
    if (snapshots > 100000) break;  // liveness backstop
  }
  for (auto& th : recorders) th.join();
  done.store(true, std::memory_order_relaxed);

  const auto snap = obs::telemetry_snapshot();
  EXPECT_EQ(snap.total_calls, static_cast<std::uint64_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(snap.flight_recorded, static_cast<std::uint64_t>(kThreads * kCallsPerThread));
}

// ---- C API mirror --------------------------------------------------------

TEST_F(TelemetryE2E, CapiSummaryAndKnobs) {
  EXPECT_EQ(armgemm_telemetry_enabled(), 1);
  run_burst(40, 48, 1);

  armgemm_latency_summary all{};
  armgemm_telemetry_latency(-1, &all);
  EXPECT_EQ(all.calls, 40u);
  EXPECT_GT(all.p50_seconds, 0.0);
  EXPECT_LE(all.p50_seconds, all.p95_seconds);
  EXPECT_LE(all.p95_seconds, all.p99_seconds);
  EXPECT_LE(all.p99_seconds, all.max_seconds);
  EXPECT_GT(all.mean_seconds, 0.0);
  EXPECT_GT(all.mean_efficiency, 0.0);

  // Per-kind filter: the kinds this burst never produced stay empty.
  const auto burst_kind = obs::ShapeClass::classify(48, 48, 48).kind;
  armgemm_latency_summary one{};
  armgemm_telemetry_latency(static_cast<int>(burst_kind), &one);
  EXPECT_EQ(one.calls, 40u);
  armgemm_latency_summary large{};
  armgemm_telemetry_latency(3, &large);
  EXPECT_EQ(large.calls, 0u);

  double fast = 0, ref = 0;
  EXPECT_EQ(armgemm_telemetry_drift_ewma(-1, &fast, &ref), 1);
  EXPECT_GT(fast, 0.0);
  EXPECT_GT(ref, 0.0);
  (void)armgemm_telemetry_anomaly_count();  // callable; count is load-dependent

  const std::string depth = ag::knob_text(ag::Knob::kFlightDepth);
  armgemm_config_set("ARMGEMM_FLIGHT_DEPTH", "32");
  EXPECT_EQ(ag::flight_depth(), 32);
  armgemm_config_set("ARMGEMM_FLIGHT_DEPTH", depth.c_str());

  const std::string thr = ag::knob_text(ag::Knob::kDriftThreshold);
  armgemm_config_set("ARMGEMM_DRIFT_THRESHOLD", "0.5");
  EXPECT_DOUBLE_EQ(ag::drift_threshold(), 0.5);
  armgemm_config_set("ARMGEMM_DRIFT_THRESHOLD", "-1.0");  // non-positive: falls back to default
  EXPECT_DOUBLE_EQ(ag::drift_threshold(), 0.25);
  armgemm_config_set("ARMGEMM_DRIFT_THRESHOLD", thr.c_str());
}

TEST_F(TelemetryE2E, CapiRenderSnprintfContract) {
  run_burst(3, 32, 1);

  const long long full = armgemm_metrics_render(0, nullptr, 0);
  ASSERT_GT(full, 0);
  std::vector<char> buf(static_cast<std::size_t>(full) + 1, '\x7f');
  EXPECT_EQ(armgemm_metrics_render(0, buf.data(), buf.size()), full);
  EXPECT_EQ(buf[static_cast<std::size_t>(full)], '\0');
  const std::string prom(buf.data());
  EXPECT_EQ(static_cast<long long>(prom.size()), full);
  EXPECT_NE(prom.find("armgemm_calls_total"), std::string::npos);

  // Truncation: still returns the full size, still NUL-terminates.
  char small_buf[8];
  EXPECT_EQ(armgemm_metrics_render(0, small_buf, sizeof small_buf), full);
  EXPECT_EQ(small_buf[7], '\0');
  EXPECT_EQ(prom.compare(0, 7, small_buf), 0);

  // The JSON document embeds uptime_seconds, so its exact length can
  // drift between the sizing call and the fill call; size with slack and
  // check the returned length against the bytes actually written.
  const long long json_full = armgemm_metrics_render(1, nullptr, 0);
  ASSERT_GT(json_full, 0);
  std::vector<char> jbuf(static_cast<std::size_t>(json_full) + 256);
  const long long json_len = armgemm_metrics_render(1, jbuf.data(), jbuf.size());
  ASSERT_GT(json_len, 0);
  ASSERT_LT(json_len, static_cast<long long>(jbuf.size()));
  EXPECT_EQ(std::string(jbuf.data()).size(), static_cast<std::size_t>(json_len));
  std::string err;
  const auto doc = ag::JsonValue::parse(jbuf.data(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(doc["schema"].as_string(), "armgemm-telemetry/1");

  EXPECT_LT(armgemm_metrics_render(2, nullptr, 0), 0);  // unknown format
}

TEST(TelemetryDisabled, HotPathStaysCold) {
  if (!obs::stats_compiled_in) GTEST_SKIP() << "built with -DARMGEMM_STATS=OFF";
  obs::telemetry_disable();
  obs::telemetry_reset();
  ASSERT_FALSE(obs::telemetry_active());

  Context ctx(ag::KernelShape{8, 6}, 1);
  auto a = ag::random_matrix(32, 32, 501);
  auto b = ag::random_matrix(32, 32, 502);
  auto c = ag::random_matrix(32, 32, 503);
  ag::dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 32, 32, 32, 1.0, a.data(),
            a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);

  const auto snap = obs::telemetry_snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.total_calls, 0u);
  EXPECT_EQ(snap.flight_recorded, 0u);
}
