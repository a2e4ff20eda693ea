// Autotuner resolution (src/tune): the per-host cache file's failure
// modes (corruption, wrong schema, another machine's fingerprint — every
// one a cold start, never a crash), concurrent first-key resolution
// sharing a single immortal config, the C API's view of a key, per-class
// mc, and the determinism contract — without a cache file a tunable call
// is bitwise identical to a pinned default context, a cached call to a
// context pinned to the cached configuration, and mode "off" to the
// untuned default path.
//
// Resolution reads a cache file or takes the anchor; nothing here times
// a kernel, so suites stay fast and TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "capi/armgemm_cblas.h"
#include "common/knobs.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/sgemm.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "obs/telemetry.hpp"
#include "scoped_knobs.hpp"
#include "threading/topology.hpp"
#include "tune/cache_file.hpp"
#include "tune/tune.hpp"

namespace {

using ag::tune::CacheLoadStatus;
using ag::tune::HostFingerprint;
using ag::tune::Precision;
using ag::tune::TuneCacheData;
using ag::tune::TunedConfig;
using ag::tune::TuneSource;

HostFingerprint test_host() { return ag::tune::host_fingerprint(); }

// One f64 entry for the key covering (m, n, k), on a blocking no
// default context runs: kc 240.
TunedConfig sample_entry(ag::index_t m, ag::index_t n, ag::index_t k) {
  const ag::obs::ShapeClass sc = ag::obs::ShapeClass::classify(m, n, k);
  TunedConfig e;
  e.precision = Precision::kF64;
  e.kind = static_cast<int>(sc.kind);
  e.decade = sc.decade;
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
  e.source = TuneSource::kCached;
  e.gflops = 7.5;
  return e;
}

TuneCacheData sample_cache() {
  TuneCacheData data;
  data.fingerprint = test_host();
  TunedConfig e = sample_entry(512, 512, 512);
  e.kind = static_cast<int>(ag::obs::ShapeKind::kSquare);
  e.decade = 8;
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

// Tuner on, the cache path set to `cache` ("" = no file), and the key
// table reset so each test starts from its own cold state; reset again
// on exit so no test leaves another a resolved key. The small-mnk guard
// keeps every test shape off the small kind.
struct TunerFixture {
  agtest::ScopedKnob small{ag::Knob::kSmallMnk, 0};
  agtest::ScopedKnob tune{ag::Knob::kTune, ag::kTuneModeOn};
  agtest::ScopedKnob cache;

  explicit TunerFixture(const std::string& cache_path = "")
      : cache(ag::Knob::kTuneCache, cache_path) {
    ag::tune::reset_for_testing();
  }
  ~TunerFixture() { ag::tune::reset_for_testing(); }
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
  EXPECT_EQ(e.gflops, 7.5);
  EXPECT_EQ(e.source, TuneSource::kCached);
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
  // wrong logical core count.
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
  // A file without a fingerprint matches no host.
  TuneCacheData out;
  EXPECT_EQ(ag::tune::parse_cache_json(R"({"schema": "armgemm-tune/1", "entries": []})",
                                       test_host(), &out, nullptr),
            CacheLoadStatus::kFingerprintMismatch);
}

TEST(TuneCache, FileWithProbeFieldsOfTheRuntimeTunerIsRead) {
  // The runtime tuner's files also carried the calibrated constants in
  // the fingerprint, process-wide prefetch distances and per-entry probe
  // fields; they read as the same entries.
  const HostFingerprint host = test_host();
  const std::string text =
      R"({"schema": "armgemm-tune/1", "fingerprint": {"arch": ")" + host.arch +
      R"(", "cores": )" + std::to_string(host.cores) +
      R"(, "peak_gflops": 12.5, "mu": 8e-11, "pi": 2e-09}, "prea": 2048, "preb": 24576,)"
      R"( "entries": [{"precision": "f64", "kind": "square", "decade": 8, "kernel": "",)"
      R"( "mr": 8, "nr": 6, "kc": 240, "mc": 64, "nc": 1920, "mc_mt": 32, "nc_mt": 960,)"
      R"( "prea": 2048, "preb": 24576, "source": "probed", "gflops": 7.5, "probe_ms": 12}]})";
  TuneCacheData out;
  ASSERT_EQ(ag::tune::parse_cache_json(text, host, &out, nullptr), CacheLoadStatus::kOk);
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].kc, 240);
  EXPECT_EQ(out.entries[0].source, TuneSource::kCached);
  EXPECT_NE(out.entries[0].kernel, nullptr);
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

// ---- resolution ----------------------------------------------------------

// Writes a cache file holding `entries` for this host and returns its path.
std::string write_cache(const std::string& name, const std::vector<TunedConfig>& entries) {
  TuneCacheData data;
  data.fingerprint = test_host();
  data.entries = entries;
  const std::string path = temp_path(name);
  EXPECT_TRUE(ag::tune::write_cache_file(path, data));
  return path;
}

TEST(Tune, OffModeResolvesNothing) {
  TunerFixture fx;
  ag::set_knob(ag::Knob::kTune, ag::kTuneModeOff);
  EXPECT_EQ(ag::tune::resolve(Precision::kF64, 512, 512, 512, 1), nullptr);
}

TEST(Tune, ResolutionIsStableAndImmortal) {
  TunerFixture fx;
  const TunedConfig* first = ag::tune::resolve(Precision::kF64, 512, 512, 512, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->source, TuneSource::kAnalytic);
  EXPECT_EQ(first->gflops, 0.0);
  // The hot path returns the same pointer forever (any thread count:
  // the key is thread-invariant, mc/nc carry the _mt variant).
  EXPECT_EQ(ag::tune::resolve(Precision::kF64, 512, 512, 512, 4), first);
  EXPECT_GE(first->mc_mt, first->mr);
  EXPECT_GE(first->nc_mt, first->nr);
  EXPECT_EQ(first->kc, first->block_sizes(8).kc);  // kc never varies
  // Without a cache file every key takes the anchor: the host default.
  const ag::BlockSizes host = ag::default_block_sizes({8, 6}, 1);
  EXPECT_EQ(first->kernel, &ag::best_microkernel({8, 6}));
  EXPECT_EQ(first->block_sizes(1).kc, host.kc);
  EXPECT_EQ(first->block_sizes(1).mc, host.mc);
  EXPECT_EQ(first->block_sizes(1).nc, host.nc);
}

TEST(Tune, ConcurrentFirstResolveSharesOneWinner) {
  TunerFixture fx(write_cache("tune_concurrent.json", {sample_entry(768, 768, 768)}));
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
      // Half the threads resolve the cached key, half an anchor key: the
      // first visit to each reads the file once, under the mutex.
      const ag::index_t n = i % 2 == 0 ? 768 : 300;
      seen[static_cast<std::size_t>(i)] = ag::tune::resolve(Precision::kF64, n, n, n, 1);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_NE(seen[0], nullptr);
  ASSERT_NE(seen[1], nullptr);
  for (int i = 2; i < kThreads; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[static_cast<std::size_t>(i % 2)]);
  EXPECT_EQ(seen[0]->source, TuneSource::kCached);
  EXPECT_EQ(seen[0]->kc, 240);
  EXPECT_EQ(seen[1]->source, TuneSource::kAnalytic);
  EXPECT_EQ(ag::tune::stats().cache_entries_loaded, 1u);
}

// ---- determinism contract ------------------------------------------------

template <typename T>
void fill(std::vector<T>* v, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (T& x : *v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<T>(static_cast<double>((s >> 11) % 1000) / 500.0 - 1.0);
  }
}

TEST(Tune, TunedCallBitwiseMatchesPinnedSameConfig) {
  // The cache file holds a configuration no default context runs (kc 240
  // on a 700-deep call, so the k chunks differ); the tunable call must
  // run exactly it.
  const std::int64_t m = 200, n = 120, k = 700;
  const TunedConfig entry = sample_entry(m, n, k);
  TunerFixture fx(write_cache("tune_bitwise.json", {entry}));
  std::vector<double> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
  fill(&a, 1);
  fill(&b, 2);

  ag::Context tuned;
  tuned.set_threads(1);
  tuned.set_tunable(true);
  std::vector<double> c_tuned(static_cast<std::size_t>(m * n), 0.5);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25,
            a.data(), m, b.data(), k, 0.75, c_tuned.data(), m, tuned);

  const TunedConfig* cfg = ag::tune::resolve(Precision::kF64, m, n, k, 1);
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->source, TuneSource::kCached);
  EXPECT_EQ(cfg->kc, entry.kc);
  ag::Context pinned;
  pinned.set_threads(1);
  pinned.set_kernel(entry.kernel_name);
  pinned.set_block_sizes(entry.block_sizes(1));
  EXPECT_FALSE(pinned.tunable());  // explicit configuration is a pin
  std::vector<double> c_pinned(c_tuned.size(), 0.5);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25,
            a.data(), m, b.data(), k, 0.75, c_pinned.data(), m, pinned);
  EXPECT_EQ(std::memcmp(c_tuned.data(), c_pinned.data(), c_tuned.size() * sizeof(double)),
            0);

  // And the default context's kc chunks round differently, so the file
  // really steered the call.
  ag::Context plain;
  plain.set_threads(1);
  std::vector<double> c_plain(c_tuned.size(), 0.5);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25,
            a.data(), m, b.data(), k, 0.75, c_plain.data(), m, plain);
  EXPECT_NE(std::memcmp(c_tuned.data(), c_plain.data(), c_tuned.size() * sizeof(double)),
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

// One shape per kind the classifier gives a single call at the default
// small-path threshold, each deeper than the default kc (512 for f64
// 8x6 and for f32), so a different kc would change the bits.
struct KindShape {
  ag::obs::ShapeKind kind;
  std::int64_t m, n, k;
};
constexpr KindShape kKindShapes[] = {
    {ag::obs::ShapeKind::kSmall, 8, 8, 600},
    {ag::obs::ShapeKind::kSkinny, 96, 96, 1300},
    {ag::obs::ShapeKind::kSquare, 170, 170, 530},
    {ag::obs::ShapeKind::kLarge, 300, 260, 700},
};

TEST(Tune, WithoutACacheFileTunableCallsMatchPinnedDefaultsBitwise) {
  TunerFixture fx;
  ag::set_knob(ag::Knob::kSmallMnk, 224);
  const ag::obs::TuneStats before = ag::tune::stats();
  for (const KindShape& s : kKindShapes) {
    ASSERT_EQ(ag::obs::ShapeClass::classify(s.m, s.n, s.k).kind, s.kind) << s.m;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(ag::obs::to_string(s.kind)) + " threads=" +
                   std::to_string(threads));
      const auto mn = static_cast<std::size_t>(s.m * s.n);
      std::vector<double> a(static_cast<std::size_t>(s.m * s.k));
      std::vector<double> b(static_cast<std::size_t>(s.k * s.n));
      fill(&a, 5);
      fill(&b, 6);

      ag::Context tunable;
      tunable.set_threads(threads);
      tunable.set_tunable(true);
      ag::Context pinned;
      pinned.set_threads(threads);
      std::vector<double> c_tunable(mn, 0.25), c_pinned(mn, 0.25);
      ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::Trans, s.m, s.n, s.k,
                1.5, a.data(), s.m, b.data(), s.n, -0.5, c_tunable.data(), s.m, tunable);
      ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::Trans, s.m, s.n, s.k,
                1.5, a.data(), s.m, b.data(), s.n, -0.5, c_pinned.data(), s.m, pinned);
      EXPECT_EQ(std::memcmp(c_tunable.data(), c_pinned.data(), mn * sizeof(double)), 0);

      // The same call as a two-entry batch on each context.
      std::vector<double> bt_tunable(2 * mn, 0.25), bt_pinned(2 * mn, 0.25);
      ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::Trans,
                              s.m, s.n, s.k, 1.5, a.data(), s.m, 0, b.data(), s.n, 0, -0.5,
                              bt_tunable.data(), s.m, static_cast<ag::index_t>(mn), 2,
                              tunable);
      ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::Trans,
                              s.m, s.n, s.k, 1.5, a.data(), s.m, 0, b.data(), s.n, 0, -0.5,
                              bt_pinned.data(), s.m, static_cast<ag::index_t>(mn), 2, pinned);
      EXPECT_EQ(std::memcmp(bt_tunable.data(), bt_pinned.data(), 2 * mn * sizeof(double)),
                0);

      std::vector<float> fa(a.size()), fb(b.size());
      fill(&fa, 7);
      fill(&fb, 8);
      std::vector<float> f_tunable(mn, 0.25f), f_pinned(mn, 0.25f);
      ag::SgemmOptions tunable_opts;
      tunable_opts.threads = threads;
      tunable_opts.tunable = true;
      ag::SgemmOptions pinned_opts;
      pinned_opts.threads = threads;
      ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::Trans, s.m, s.n, s.k,
                1.5f, fa.data(), s.m, fb.data(), s.n, -0.5f, f_tunable.data(), s.m,
                tunable_opts);
      ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::Trans, s.m, s.n, s.k,
                1.5f, fa.data(), s.m, fb.data(), s.n, -0.5f, f_pinned.data(), s.m,
                pinned_opts);
      EXPECT_EQ(std::memcmp(f_tunable.data(), f_pinned.data(), mn * sizeof(float)), 0);
    }
  }
  // Every key resolved here took the anchor.
  const ag::obs::TuneStats after = ag::tune::stats();
  const auto resolved = [&](TuneSource src) {
    const int i = static_cast<int>(src);
    return after.resolutions[i] - before.resolutions[i];
  };
  EXPECT_EQ(resolved(TuneSource::kCached), 0u);
  EXPECT_GT(resolved(TuneSource::kAnalytic), 0u);
}

// ---- the C API's view of a key -------------------------------------------

TEST(TuneResolveCapi, OffModeReturnsZero) {
  TunerFixture fx;
  ag::set_knob(ag::Knob::kTune, ag::kTuneModeOff);
  armgemm_tuned_config out;
  EXPECT_EQ(armgemm_tune_resolve(0, 512, 512, 512, 1, &out), 0);
  EXPECT_EQ(armgemm_tune_resolve(1, 512, 512, 512, 1, &out), 0);
}

TEST(TuneResolveCapi, WithoutACacheReturnsTheAnchor) {
  TunerFixture fx;
  const ag::Context ctx;  // the default pinned context
  const ag::BlockSizes& bs = ctx.block_sizes();
  armgemm_tuned_config out;
  ASSERT_EQ(armgemm_tune_resolve(0, 512, 512, 512, 1, &out), 1);
  EXPECT_EQ(out.source, static_cast<int>(TuneSource::kAnalytic));
  EXPECT_STREQ(out.kernel, ctx.kernel().name.c_str());
  EXPECT_EQ(out.mr, bs.mr);
  EXPECT_EQ(out.nr, bs.nr);
  EXPECT_EQ(out.kc, bs.kc);
  EXPECT_EQ(out.mc, bs.mc);
  EXPECT_EQ(out.nc, bs.nc);
  EXPECT_EQ(out.gflops, 0.0);

  const ag::BlockSizes sbs = ag::default_sgemm_block_sizes(
      {ag::best_smicrokernel().mr, ag::best_smicrokernel().nr});
  ASSERT_EQ(armgemm_tune_resolve(1, 512, 512, 512, 1, &out), 1);
  EXPECT_EQ(out.source, static_cast<int>(TuneSource::kAnalytic));
  EXPECT_EQ(out.kc, sbs.kc);
  EXPECT_EQ(out.mc, sbs.mc);
  EXPECT_EQ(out.nc, sbs.nc);
}

TEST(TuneResolveCapi, CacheEntryReturnsAsCached) {
  const TunedConfig entry = sample_entry(640, 640, 640);
  TunerFixture fx(write_cache("tune_capi.json", {entry}));
  armgemm_tuned_config out;
  ASSERT_EQ(armgemm_tune_resolve(0, 640, 640, 640, 4, &out), 1);
  EXPECT_EQ(out.source, static_cast<int>(TuneSource::kCached));
  EXPECT_STREQ(out.kernel, entry.kernel_name.c_str());
  EXPECT_EQ(out.kc, entry.kc);
  EXPECT_EQ(out.mc, entry.mc);
  EXPECT_EQ(out.nc, entry.nc);
  EXPECT_EQ(out.mc_mt, entry.mc_mt);
  EXPECT_EQ(out.nc_mt, entry.nc_mt);
  EXPECT_EQ(out.gflops, entry.gflops);
  // The f32 key of the same shape has no entry: the anchor.
  ASSERT_EQ(armgemm_tune_resolve(1, 640, 640, 640, 4, &out), 1);
  EXPECT_EQ(out.source, static_cast<int>(TuneSource::kAnalytic));
}

// ---- per-class mc ----------------------------------------------------------

TEST(TunePerClassMc, ScalesByClassWeightOnAnEmulatedBigLittle) {
  agtest::ScopedCpuClasses topo("2x2.0,2x1.0");
  (void)ag::Topology::get();  // registers the topology source per_class_mc reads
  EXPECT_EQ(ag::tune::per_class_mc(48, 8), (std::vector<ag::index_t>{48, 24}));
}

TEST(TunePerClassMc, FloorsEachClassAtMr) {
  agtest::ScopedCpuClasses topo("2x8.0,2x1.0");
  (void)ag::Topology::get();
  EXPECT_EQ(ag::tune::per_class_mc(48, 8), (std::vector<ag::index_t>{48, 8}));
}

TEST(TunePerClassMc, EmptyOnAFlatTopology) {
  agtest::ScopedCpuClasses topo("4x1.0");
  (void)ag::Topology::get();
  EXPECT_TRUE(ag::tune::per_class_mc(48, 8).empty());
}

}  // namespace
