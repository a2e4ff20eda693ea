#include "tune/tune.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "common/knobs.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "obs/telemetry.hpp"
#include "tune/cache_file.hpp"

namespace ag::tune {

namespace {

// ---- process-wide counters (live outside the tuner singleton so pinned
// call accounting and the telemetry source never construct it) ----------

struct Counters {
  std::atomic<std::uint64_t> resolutions[kTuneSourceCount] = {};
  std::atomic<std::uint64_t> calls[kTuneSourceCount] = {};
  std::atomic<std::uint64_t> cache_entries_loaded{0};
  std::atomic<std::uint64_t> cache_rejected{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

// ---- key space -----------------------------------------------------------

constexpr int kKeys = kPrecisionCount * obs::kShapeClasses;

int key_index(Precision p, int kind, int decade) {
  return static_cast<int>(p) * obs::kShapeClasses + kind * obs::kShapeDecades + decade;
}

// ---- the tuner singleton -------------------------------------------------

struct Tuner {
  std::mutex mutex;
  std::atomic<const TunedConfig*> table[kKeys] = {};

  // Guarded by mutex:
  bool cache_loaded = false;
  std::vector<TunedConfig> entries;  // the cache file's accepted entries
};

Tuner& tuner() {
  static Tuner* t = new Tuner;  // leaky: configs are immortal by design
  return *t;
}

void ensure_cache_loaded(Tuner& t) {
  if (t.cache_loaded) return;
  t.cache_loaded = true;
  const std::string path = tune_cache_path();
  if (path.empty()) return;
  std::uint64_t rejected_entries = 0;
  TuneCacheData data;
  const CacheLoadStatus status =
      load_cache_file(path, host_fingerprint(), &data, &rejected_entries);
  counters().cache_rejected.fetch_add(rejected_entries, std::memory_order_relaxed);
  if (status == CacheLoadStatus::kOk) {
    t.entries = std::move(data.entries);
    counters().cache_entries_loaded.store(t.entries.size(), std::memory_order_relaxed);
  } else if (status != CacheLoadStatus::kMissing) {
    counters().cache_rejected.fetch_add(1, std::memory_order_relaxed);
  }
}

// The key's cache entry, or the anchor. Called under the tuner mutex.
const TunedConfig* resolve_key(Tuner& t, Precision precision, int kind, int decade) {
  ensure_cache_loaded(t);
  const auto cached = std::ranges::find_if(t.entries, [&](const TunedConfig& e) {
    return e.precision == precision && e.kind == kind && e.decade == decade;
  });
  auto* cfg = new TunedConfig(cached != t.entries.end() ? *cached : anchor(precision));
  cfg->kind = kind;
  cfg->decade = decade;
  counters().resolutions[static_cast<int>(cfg->source)].fetch_add(1,
                                                                  std::memory_order_relaxed);
  return cfg;  // immortal
}

}  // namespace

const char* to_string(Precision p) {
  return p == Precision::kF32 ? "f32" : "f64";
}

const char* to_string(TuneSource s) {
  return obs::tune_source_name(static_cast<int>(s));
}

void TunedConfig::set_blocking(const BlockSizes& bs) {
  mr = bs.mr;
  nr = bs.nr;
  kc = bs.kc;
  mc = bs.mc;
  nc = bs.nc;
  mc_mt = std::max<index_t>(mr, mc / 2 / mr * mr);
  nc_mt = std::max<index_t>(nr, nc / 2 / nr * nr);
}

TunedConfig anchor(Precision precision) {
  TunedConfig cfg;
  cfg.precision = precision;
  cfg.source = TuneSource::kAnalytic;
  if (precision == Precision::kF32) {
    const SMicrokernel& kern = best_smicrokernel();
    cfg.set_blocking(default_sgemm_block_sizes(KernelShape{kern.mr, kern.nr}));
    return cfg;
  }
  const KernelShape shape{8, 6};
  cfg.kernel = &best_microkernel(shape);
  cfg.kernel_name = cfg.kernel->name;
  cfg.set_blocking(default_block_sizes(shape, 1));
  return cfg;
}

std::vector<index_t> per_class_mc(index_t mc, int mr) {
  std::vector<index_t> out;
  if (mc <= 0 || mr <= 0) return out;
  if (!obs::topology_stats_available()) return out;
  const obs::TopologyStats ts = obs::topology_stats();
  if (ts.classes.size() < 2) return out;
  out.reserve(ts.classes.size());
  bool any_shrunk = false;
  for (const obs::TopologyClassStats& c : ts.classes) {
    // Weights are normalized to the fastest class == 1, so scaling only
    // ever shrinks mc. A degenerate (<= 0) weight keeps the full mc —
    // better an oversized block than a zero-row one.
    const double w = c.weight > 0 ? std::min(c.weight, 1.0) : 1.0;
    index_t cls_mc = static_cast<index_t>(static_cast<double>(mc) * w);
    cls_mc = std::max<index_t>(mr, cls_mc / mr * mr);
    if (cls_mc < mc) any_shrunk = true;
    out.push_back(cls_mc);
  }
  if (!any_shrunk) out.clear();
  return out;
}

const TunedConfig* resolve(Precision precision, index_t m, index_t n, index_t k,
                           int threads) {
  (void)threads;  // the key is thread-count invariant; see TunedConfig
  if (tune_mode() == kTuneModeOff) return nullptr;
  const obs::ShapeClass sc = obs::ShapeClass::classify(m, n, k);
  const int kind = static_cast<int>(sc.kind);
  const int idx = key_index(precision, kind, sc.decade);

  Tuner& t = tuner();
  const TunedConfig* cfg = t.table[idx].load(std::memory_order_acquire);
  if (cfg != nullptr) return cfg;

  std::lock_guard lock(t.mutex);
  cfg = t.table[idx].load(std::memory_order_acquire);
  if (cfg != nullptr) return cfg;
  cfg = resolve_key(t, precision, kind, sc.decade);
  t.table[idx].store(cfg, std::memory_order_release);
  return cfg;
}

void record_call(TuneSource source) {
  counters().calls[static_cast<int>(source)].fetch_add(1, std::memory_order_relaxed);
  // First touch registers the telemetry source (tune-source gauge).
  static const bool registered = [] {
    obs::set_tune_stats_source(&stats);
    return true;
  }();
  (void)registered;
}

void reset_for_testing() {
  Tuner& t = tuner();
  std::lock_guard lock(t.mutex);
  for (auto& slot : t.table) slot.store(nullptr, std::memory_order_release);
  t.entries.clear();
  t.cache_loaded = false;
  counters().cache_entries_loaded.store(0, std::memory_order_relaxed);
}

obs::TuneStats stats() {
  obs::TuneStats s;
  Counters& c = counters();
  s.mode = tune_mode();
  s.cache_path_set = !tune_cache_path().empty();
  s.cache_entries_loaded = c.cache_entries_loaded.load(std::memory_order_relaxed);
  s.cache_rejected = c.cache_rejected.load(std::memory_order_relaxed);
  for (int i = 0; i < kTuneSourceCount; ++i) {
    s.resolutions[i] = c.resolutions[i].load(std::memory_order_relaxed);
    s.calls[i] = c.calls[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace ag::tune
