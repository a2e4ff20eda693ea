// Closed-loop autotuner (src/tune): the persistent cache file's failure
// modes (corruption, wrong schema, another machine's fingerprint — every
// one a cold start, never a crash), concurrent first-key resolution
// sharing a single immortal winner, drift-triggered invalidation, and
// the determinism contract — a tuned call is bitwise identical to a
// pinned call with the same configuration, and mode "off" is bitwise
// the pre-tuner default path.
//
// The probe runner is a deterministic fake (tune::set_probe_runner) and
// the machine model is pinned (tune::set_machine_model), so nothing here
// times real kernels; suites stay fast and TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hpp"
#include "core/gemm.hpp"
#include "core/tuning.hpp"
#include "obs/telemetry.hpp"
#include "scoped_knobs.hpp"
#include "tune/cache_file.hpp"
#include "tune/tune.hpp"

namespace {

using ag::tune::CacheLoadStatus;
using ag::tune::HostFingerprint;
using ag::tune::Precision;
using ag::tune::TuneCacheData;
using ag::tune::TunedConfig;
using ag::tune::TuneSource;

// Deterministic probe: prefers larger kc a little, so ranking is stable
// and never depends on wall time.
double fake_probe(const ag::tune::ProbeRequest& req) {
  return 5.0 + 0.001 * static_cast<double>(req.kc % 1024);
}

HostFingerprint test_host() { return ag::tune::host_fingerprint(10.0, 1e-10, 1e-9); }

TuneCacheData sample_cache() {
  TuneCacheData data;
  data.fingerprint = test_host();
  data.prea = 1024;
  data.preb = 24576;
  TunedConfig e;
  e.precision = Precision::kF64;
  e.kind = static_cast<int>(ag::obs::ShapeKind::kSquare);
  e.decade = 8;
  const ag::Microkernel* kern = ag::find_best_microkernel({8, 6});
  e.kernel = kern;
  e.kernel_name = kern != nullptr ? kern->name : "";
  e.mr = 8;
  e.nr = 6;
  e.kc = 240;
  e.mc = 64;
  e.nc = 1920;
  e.mc_mt = 32;
  e.nc_mt = 960;
  e.source = TuneSource::kProbed;
  e.gflops = 7.5;
  data.entries.push_back(e);
  return data;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

// Pins mode/model/probe runner for the tuner-level tests and resets the
// key table so each test starts from its own cold state. The small-mnk
// guard keeps every test shape off the small kind; the prefetch guards
// pin the process knobs, so the fake probe session cannot leak a tuned
// prefetch distance into other tests.
struct TunerFixture {
  agtest::ScopedKnob small{ag::Knob::kSmallMnk, 0};
  agtest::ScopedKnob prea{ag::Knob::kPrea, 1024};
  agtest::ScopedKnob preb{ag::Knob::kPreb, 24576};

  TunerFixture() {
    ag::set_knob(ag::Knob::kTune, ag::kTuneModeOn);
    ag::set_knob(ag::Knob::kTuneCache, "");
    ag::tune::set_machine_model(10.0, 1e-10, 1e-9);
    ag::tune::set_probe_runner(&fake_probe);
    ag::tune::force_retune();
  }
  ~TunerFixture() {
    ag::tune::force_retune();
    ag::set_knob(ag::Knob::kTune, ag::kTuneModeOn);
  }
};

// ---- cache file ----------------------------------------------------------

TEST(TuneCache, RoundTripPreservesEntries) {
  const TuneCacheData data = sample_cache();
  const std::string text = ag::tune::render_cache_json(data);

  TuneCacheData back;
  std::uint64_t rejected = 0;
  ASSERT_EQ(ag::tune::parse_cache_json(text, test_host(), &back, &rejected),
            CacheLoadStatus::kOk);
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(back.prea, 1024);
  EXPECT_EQ(back.preb, 24576);
  ASSERT_EQ(back.entries.size(), 1u);
  const TunedConfig& e = back.entries[0];
  EXPECT_EQ(e.precision, Precision::kF64);
  EXPECT_EQ(e.kind, static_cast<int>(ag::obs::ShapeKind::kSquare));
  EXPECT_EQ(e.decade, 8);
  EXPECT_EQ(e.kc, 240);
  EXPECT_EQ(e.mc, 64);
  EXPECT_EQ(e.nc, 1920);
  EXPECT_EQ(e.mc_mt, 32);
  EXPECT_EQ(e.nc_mt, 960);
  EXPECT_EQ(e.source, TuneSource::kCached);  // re-stamped on load
  EXPECT_NE(e.kernel, nullptr);
}

TEST(TuneCache, CorruptOrTruncatedFileIsAColdStart) {
  const char* bodies[] = {
      "this is not json at all",
      "{\"schema\": \"armgemm-tune/1\", \"entries\": [",  // truncated mid-array
      "",                                                 // empty file
      "{}trailing",
  };
  int i = 0;
  for (const char* body : bodies) {
    const std::string path = temp_path("tune_corrupt_" + std::to_string(i++) + ".json");
    write_text(path, body);
    TuneCacheData out;
    std::uint64_t rejected = 0;
    EXPECT_EQ(ag::tune::load_cache_file(path, test_host(), &out, &rejected),
              CacheLoadStatus::kParseError)
        << body;
    EXPECT_TRUE(out.entries.empty());
  }
}

TEST(TuneCache, MissingFileReportsMissing) {
  TuneCacheData out;
  EXPECT_EQ(ag::tune::load_cache_file(temp_path("tune_never_written.json"), test_host(),
                                      &out, nullptr),
            CacheLoadStatus::kMissing);
}

TEST(TuneCache, SchemaMismatchRejected) {
  std::string text = ag::tune::render_cache_json(sample_cache());
  const std::string tag = "armgemm-tune/1";
  text.replace(text.find(tag), tag.size(), "armgemm-tune/999");
  TuneCacheData out;
  EXPECT_EQ(ag::tune::parse_cache_json(text, test_host(), &out, nullptr),
            CacheLoadStatus::kSchemaMismatch);
  EXPECT_TRUE(out.entries.empty());
}

TEST(TuneCache, FingerprintMismatchRejected) {
  // Same text, two "different machine" readers: wrong arch string and
  // wrong logical core count. Calibration constants are deliberately not
  // gated — the quick calibration jitters by large factors, and gating
  // on it would make warm starts flaky.
  const std::string text = ag::tune::render_cache_json(sample_cache());

  HostFingerprint other_arch = test_host();
  other_arch.arch = "someother-64bit";
  HostFingerprint other_cores = test_host();
  other_cores.cores += 7;

  for (const HostFingerprint& host : {other_arch, other_cores}) {
    TuneCacheData out;
    EXPECT_EQ(ag::tune::parse_cache_json(text, host, &out, nullptr),
              CacheLoadStatus::kFingerprintMismatch);
    EXPECT_TRUE(out.entries.empty());
  }
  // The same-host reader accepts any plausible calibration delta.
  HostFingerprint jittered = test_host();
  jittered.peak_gflops *= 40.0;
  TuneCacheData ok;
  EXPECT_EQ(ag::tune::parse_cache_json(text, jittered, &ok, nullptr),
            CacheLoadStatus::kOk);
  // A non-positive recorded peak is still a broken file, not a match.
  const std::string zero_text =
      ag::tune::render_cache_json([] {
        TuneCacheData d = sample_cache();
        d.fingerprint.peak_gflops = 0;
        return d;
      }());
  TuneCacheData rejected;
  EXPECT_EQ(ag::tune::parse_cache_json(zero_text, test_host(), &rejected, nullptr),
            CacheLoadStatus::kFingerprintMismatch);
}

TEST(TuneCache, InvalidEntriesDroppedAndCounted) {
  TuneCacheData data = sample_cache();
  TunedConfig bad = data.entries[0];
  bad.kc = -8;  // impossible blocking
  data.entries.push_back(bad);
  TunedConfig unknown_kernel = data.entries[0];
  unknown_kernel.mr = 999;  // no registered 999x6 kernel in any build
  unknown_kernel.mc = 999;
  data.entries.push_back(unknown_kernel);

  TuneCacheData out;
  std::uint64_t rejected = 0;
  ASSERT_EQ(ag::tune::parse_cache_json(ag::tune::render_cache_json(data), test_host(),
                                       &out, &rejected),
            CacheLoadStatus::kOk);
  EXPECT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(rejected, 2u);
}

TEST(TuneCache, WritePublishesAtomically) {
  const std::string path = temp_path("tune_write.json");
  ASSERT_TRUE(ag::tune::write_cache_file(path, sample_cache()));
  // The temp file renamed over the target: target readable, no .tmp left.
  TuneCacheData out;
  EXPECT_EQ(ag::tune::load_cache_file(path, test_host(), &out, nullptr),
            CacheLoadStatus::kOk);
  EXPECT_EQ(out.entries.size(), 1u);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

// ---- tuner resolution ----------------------------------------------------

TEST(Tune, OffModeResolvesNothing) {
  TunerFixture fx;
  ag::set_knob(ag::Knob::kTune, ag::kTuneModeOff);
  EXPECT_EQ(ag::tune::resolve(Precision::kF64, 512, 512, 512, 1), nullptr);
}

TEST(Tune, AnalyticModeNeverProbes) {
  TunerFixture fx;
  ag::set_knob(ag::Knob::kTune, ag::kTuneModeAnalytic);
  const std::uint64_t probes_before = ag::tune::stats().probes_run;
  const TunedConfig* cfg = ag::tune::resolve(Precision::kF64, 512, 512, 512, 1);
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->source, TuneSource::kAnalytic);
  EXPECT_EQ(ag::tune::stats().probes_run, probes_before);
  EXPECT_NE(cfg->kernel, nullptr);
  EXPECT_GT(cfg->kc, 0);
}

TEST(Tune, ProbedResolutionIsStableAndImmortal) {
  TunerFixture fx;
  const TunedConfig* first = ag::tune::resolve(Precision::kF64, 512, 512, 512, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->source, TuneSource::kProbed);
  EXPECT_GT(first->gflops, 0.0);
  // The hot path returns the same pointer forever (any thread count:
  // the key is thread-invariant, mc/nc carry the _mt variant).
  EXPECT_EQ(ag::tune::resolve(Precision::kF64, 512, 512, 512, 4), first);
  EXPECT_GE(first->mc_mt, first->mr);
  EXPECT_GE(first->nc_mt, first->nr);
  EXPECT_EQ(first->kc, first->block_sizes(8).kc);  // kc never varies
}

TEST(Tune, ConcurrentFirstResolveSharesOneWinner) {
  TunerFixture fx;
  constexpr int kThreads = 8;
  std::atomic<int> go{0};
  std::vector<const TunedConfig*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }  // line up on the cold key
      seen[static_cast<std::size_t>(i)] =
          ag::tune::resolve(Precision::kF64, 768, 768, 768, 1);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_NE(seen[0], nullptr);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
}

TEST(Tune, DriftInvalidationPublishesAFreshConfig) {
  TunerFixture fx;
  const TunedConfig* before = ag::tune::resolve(Precision::kF64, 512, 512, 512, 1);
  ASSERT_NE(before, nullptr);
  const std::uint64_t invals = ag::tune::stats().invalidations;

  const ag::obs::ShapeClass sc = ag::obs::ShapeClass::classify(512, 512, 512);
  ag::obs::notify_drift_anomaly(sc.index());

  EXPECT_EQ(ag::tune::stats().invalidations, invals + 1);
  const TunedConfig* after = ag::tune::resolve(Precision::kF64, 512, 512, 512, 1);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);  // re-tuned, freshly published
  // The old pointer stays readable forever (immortal by design).
  EXPECT_EQ(before->precision, Precision::kF64);
}

TEST(Tune, SaveAndReloadRoundTripsThroughStats) {
  TunerFixture fx;
  ASSERT_NE(ag::tune::resolve(Precision::kF64, 512, 512, 512, 1), nullptr);
  const std::string path = temp_path("tune_save_reload.json");
  EXPECT_EQ(ag::tune::save_cache(path), 0);

  TuneCacheData out;
  ASSERT_EQ(ag::tune::load_cache_file(path, ag::tune::host_fingerprint(10.0, 1e-10, 1e-9),
                                      &out, nullptr),
            CacheLoadStatus::kOk);
  EXPECT_GE(out.entries.size(), 1u);
  // Saving with no path configured reports failure, not a crash.
  ag::set_knob(ag::Knob::kTuneCache, "");
  EXPECT_EQ(ag::tune::save_cache(), -1);
}

// ---- determinism contract ------------------------------------------------

void fill(std::vector<double>* v, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (double& x : *v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<double>((s >> 11) % 1000) / 500.0 - 1.0;
  }
}

TEST(Tune, TunedCallBitwiseMatchesPinnedSameConfig) {
  TunerFixture fx;
  const std::int64_t n = 96;
  std::vector<double> a(static_cast<std::size_t>(n * n)), b(a.size());
  fill(&a, 1);
  fill(&b, 2);

  ag::Context tuned;
  tuned.set_threads(1);
  tuned.set_tunable(true);
  std::vector<double> c_tuned(a.size(), 0.5);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, n, 1.25,
            a.data(), n, b.data(), n, 0.75, c_tuned.data(), n, tuned);

  // The same key the tuned call resolved: pin a context to exactly that
  // kernel + blocking and the bits must match.
  const TunedConfig* cfg = ag::tune::resolve(Precision::kF64, n, n, n, 1);
  ASSERT_NE(cfg, nullptr);
  ASSERT_NE(cfg->kernel, nullptr);
  ag::Context pinned;
  pinned.set_threads(1);
  pinned.set_kernel(cfg->kernel->name);
  pinned.set_block_sizes(cfg->block_sizes(1));
  EXPECT_FALSE(pinned.tunable());  // explicit configuration is a pin
  std::vector<double> c_pinned(a.size(), 0.5);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, n, 1.25,
            a.data(), n, b.data(), n, 0.75, c_pinned.data(), n, pinned);

  EXPECT_EQ(std::memcmp(c_tuned.data(), c_pinned.data(), c_tuned.size() * sizeof(double)),
            0);
}

TEST(Tune, OffModeBitwiseMatchesUntunedDefault) {
  TunerFixture fx;
  const std::int64_t n = 64;
  std::vector<double> a(static_cast<std::size_t>(n * n)), b(a.size());
  fill(&a, 3);
  fill(&b, 4);

  // Mode off: a tunable context runs the exact pre-tuner default path.
  ag::set_knob(ag::Knob::kTune, ag::kTuneModeOff);
  ag::Context tunable_off;
  tunable_off.set_threads(1);
  tunable_off.set_tunable(true);
  std::vector<double> c_off(a.size(), -2.0);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, n, 1.0,
            a.data(), n, b.data(), n, 1.0, c_off.data(), n, tunable_off);

  ag::Context plain;
  plain.set_threads(1);
  std::vector<double> c_plain(a.size(), -2.0);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, n, 1.0,
            a.data(), n, b.data(), n, 1.0, c_plain.data(), n, plain);

  EXPECT_EQ(std::memcmp(c_off.data(), c_plain.data(), c_off.size() * sizeof(double)), 0);
}

}  // namespace
