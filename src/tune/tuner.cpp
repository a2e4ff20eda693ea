#include "tune/tune.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "model/cache_blocking.hpp"
#include "model/machine.hpp"
#include "obs/calibrate.hpp"
#include "obs/telemetry.hpp"
#include "tune/cache_file.hpp"

namespace ag::tune {

namespace {

// ---- process-wide counters (live outside the tuner singleton so pinned
// call accounting and the telemetry source never construct it) ----------

struct Counters {
  std::atomic<std::uint64_t> resolutions[kTuneSourceCount] = {};
  std::atomic<std::uint64_t> calls[kTuneSourceCount] = {};
  std::atomic<std::uint64_t> probes_run{0};
  std::atomic<std::uint64_t> probe_us_spent{0};
  std::atomic<std::uint64_t> cache_entries_loaded{0};
  std::atomic<std::uint64_t> cache_rejected{0};
  std::atomic<std::uint64_t> invalidations{0};
  std::atomic<std::uint64_t> saves{0};
  std::atomic<std::uint64_t> save_failures{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

std::atomic<ProbeFn> g_probe_runner{nullptr};

// Test-pinned machine model (peak, mu, pi); peak <= 0 means "read the host
// calibration".
struct PinnedModel {
  std::atomic<double> peak{0}, mu{0}, pi{0};
};
PinnedModel& pinned_model() {
  static PinnedModel m;
  return m;
}

// ---- key space -----------------------------------------------------------

constexpr int kKeys = kPrecisionCount * obs::kShapeClasses;

int key_index(Precision p, int kind, int decade) {
  return static_cast<int>(p) * obs::kShapeClasses + kind * obs::kShapeDecades + decade;
}

// Representative probe dimensions for a key. Volumes are clamped so one
// probe never exceeds a 256^3 equivalent (~17 ms at 2 Gflops) and never
// shrinks below the packing-amortization floor.
void probe_dims(int kind, int decade, index_t* m, index_t* n, index_t* k) {
  const double vol = std::min(std::pow(10.0, decade), 16.8e6);
  const auto round8 = [](double v) {
    return std::max<index_t>(16, static_cast<index_t>(v / 8.0 + 0.5) * 8);
  };
  if (kind == static_cast<int>(obs::ShapeKind::kSkinny)) {
    // 4:1:1 aspect, the classifier's skinny edge.
    const index_t t = round8(std::cbrt(std::max(vol, 65536.0) / 4.0));
    *m = 4 * t;
    *n = t;
    *k = t;
    return;
  }
  if (kind == static_cast<int>(obs::ShapeKind::kLarge)) {
    *m = *n = *k = 256;
    return;
  }
  // square / small / batch: a cube of the decade's volume.
  const index_t s = std::max<index_t>(32, round8(std::cbrt(std::max(vol, 32768.0))));
  *m = *n = *k = s;
}

// ---- the tuner singleton -------------------------------------------------

struct CandidateResult {
  BlockSizes bs;
  const Microkernel* kernel = nullptr;
  double gflops = 0;
};

struct Tuner {
  std::mutex mutex;
  std::atomic<const TunedConfig*> table[kKeys] = {};
  std::atomic<bool> pending_invalidate[obs::kShapeClasses] = {};

  // Guarded by mutex:
  bool cache_loaded = false;
  TuneCacheData cache;        // accepted persistent state (entries mutate as we tune)
  bool model_ready = false;
  double peak_gflops = 0, mu = 0, pi = 0;
  HostFingerprint fingerprint;
  bool knobs_applied = false;  // prefetch applied once per process
  bool prefetch_probed = false;

  double budget_spent_ms() const {
    return static_cast<double>(counters().probe_us_spent.load(std::memory_order_relaxed)) /
           1000.0;
  }
  double budget_remaining_ms() const {
    return static_cast<double>(tune_budget_ms()) - budget_spent_ms();
  }
};

obs::TuneStats tune_stats_snapshot();

void on_drift_anomaly(int shape_class);

Tuner& tuner() {
  static Tuner* t = [] {
    auto* fresh = new Tuner;  // leaky: configs are immortal by design
    obs::set_drift_anomaly_listener(&on_drift_anomaly);
    return fresh;
  }();
  return *t;
}

std::atomic<bool> g_tuner_constructed{false};

// Drift fired for a shape class: the machine no longer behaves like the
// model (thermal change, co-tenancy, cpufreq...). Drop the resolved
// pointers so the next call re-tunes. Atomic work only — this runs on
// the dgemm telemetry record path.
void on_drift_anomaly(int shape_class) {
  if (shape_class < 0 || shape_class >= obs::kShapeClasses) return;
  if (!g_tuner_constructed.load(std::memory_order_acquire)) return;
  Tuner& t = tuner();
  bool had = false;
  for (int p = 0; p < kPrecisionCount; ++p) {
    std::atomic<const TunedConfig*>& slot =
        t.table[p * obs::kShapeClasses + shape_class];
    if (slot.exchange(nullptr, std::memory_order_acq_rel) != nullptr) had = true;
  }
  if (had) {
    t.pending_invalidate[shape_class].store(true, std::memory_order_release);
    counters().invalidations.fetch_add(1, std::memory_order_relaxed);
  }
}

// Runs (or waits for) the host calibration before the tuner mutex is
// taken, so no thread holds the mutex across the probes: a child forked
// meanwhile would inherit it locked.
void prime_host_calibration() {
  if (pinned_model().peak.load(std::memory_order_relaxed) <= 0)
    obs::host_calibration(/*wait=*/true);
}

void ensure_model(Tuner& t) {
  if (t.model_ready) return;
  const double pinned_peak = pinned_model().peak.load(std::memory_order_relaxed);
  if (pinned_peak > 0) {
    t.peak_gflops = pinned_peak;
    t.mu = pinned_model().mu.load(std::memory_order_relaxed);
    t.pi = pinned_model().pi.load(std::memory_order_relaxed);
  } else {
    // The process's one host calibration, shared with telemetry. The
    // fingerprint gates only on peak > 0, and the probe cost estimates
    // need ballpark constants, not publication-grade ones.
    const obs::CalibrationResult& cal = *obs::host_calibration(/*wait=*/true);
    t.peak_gflops = cal.peak_gflops;
    t.mu = cal.mu;
    t.pi = cal.pi;
  }
  t.fingerprint = host_fingerprint(t.peak_gflops, t.mu, t.pi);
  t.model_ready = true;
}

void ensure_cache_loaded(Tuner& t) {
  if (t.cache_loaded) return;
  t.cache_loaded = true;
  t.cache.fingerprint = t.fingerprint;
  const std::string path = tune_cache_path();
  if (path.empty()) return;
  std::uint64_t rejected_entries = 0;
  TuneCacheData data;
  const CacheLoadStatus status = load_cache_file(path, t.fingerprint, &data,
                                                 &rejected_entries);
  counters().cache_rejected.fetch_add(rejected_entries, std::memory_order_relaxed);
  if (status == CacheLoadStatus::kOk) {
    const std::size_t accepted = data.entries.size();
    data.fingerprint = t.fingerprint;  // re-stamp with this run's calibration
    t.cache = std::move(data);
    counters().cache_entries_loaded.store(accepted, std::memory_order_relaxed);
  } else if (status != CacheLoadStatus::kMissing) {
    counters().cache_rejected.fetch_add(1, std::memory_order_relaxed);
  }
}

// Applies the cache's whole-process knobs (prefetch) once. Explicitly
// pinned knobs (env / set_knob) always win — tuner_apply is a no-op then.
void apply_process_knobs(Tuner& t) {
  if (t.knobs_applied) return;
  t.knobs_applied = true;
  if (tune_mode() != kTuneModeOn) return;
  if (t.cache.prea > 0 && t.cache.preb > 0) {
    tuner_apply(Knob::kPrea, t.cache.prea);
    tuner_apply(Knob::kPreb, t.cache.preb);
  }
}

double run_probe_timed(Tuner& t, const ProbeRequest& req) {
  const ProbeFn fn = g_probe_runner.load(std::memory_order_acquire);
  if (fn == nullptr) return 0;
  // Skip probes that could not finish inside the remaining budget even
  // at a conservative 20% of calibrated peak.
  const double flops = 2.0 * static_cast<double>(req.m) * static_cast<double>(req.n) *
                       static_cast<double>(req.k);
  if (t.peak_gflops > 0) {
    const double est_ms = flops / (t.peak_gflops * 0.2) * 1e-6 * 3;  // warmup + 2 reps
    if (est_ms > t.budget_remaining_ms()) return 0;
  }
  const std::uint64_t t0 = now_ns();
  const double gflops = fn(req);
  const std::uint64_t us = (now_ns() - t0) / 1000;
  counters().probe_us_spent.fetch_add(us, std::memory_order_relaxed);
  counters().probes_run.fetch_add(1, std::memory_order_relaxed);
  return gflops;
}

// Rounds a blocking candidate to the kernel grid and validates it.
bool normalize_candidate(BlockSizes* bs) {
  bs->kc = std::max<index_t>(8, bs->kc);
  bs->mc = std::max<index_t>(bs->mr, bs->mc / bs->mr * bs->mr);
  bs->nc = std::max<index_t>(bs->nr, bs->nc / bs->nr * bs->nr);
  try {
    bs->validate();
  } catch (...) {
    return false;
  }
  return true;
}

// The multi-thread variant of a chosen serial blocking: same kc (the
// accumulation order stays thread-count invariant), halved mc/nc — the
// same scaling default_block_sizes applies — re-rounded to the grid.
void derive_mt_blocking(TunedConfig* cfg) {
  cfg->mc_mt = std::max<index_t>(cfg->mr, cfg->mc / 2 / cfg->mr * cfg->mr);
  cfg->nc_mt = std::max<index_t>(cfg->nr, cfg->nc / 2 / cfg->nr * cfg->nr);
}

// ---- candidate proposal --------------------------------------------------

struct Candidate {
  const Microkernel* kernel = nullptr;  // f64 only
  BlockSizes bs;
};

// The analytic model + host-heuristic neighborhood for one f64 key.
// First the per-shape anchors (host default and the paper's ways-based
// solver priced on the paper machine), then a coordinate sweep around
// the anchor of the preferred shape.
std::vector<Candidate> propose_f64(int threads_hint) {
  std::vector<Candidate> cands;
  const KernelShape shapes[] = {{8, 6}, {8, 4}, {12, 4}};
  for (const KernelShape shape : shapes) {
    const Microkernel* kern = find_best_microkernel(shape);
    if (kern == nullptr) continue;
    Candidate host;
    host.kernel = kern;
    host.bs = default_block_sizes(shape, threads_hint);
    if (normalize_candidate(&host.bs)) cands.push_back(host);

    Candidate model;
    model.kernel = kern;
    model.bs = model::solve_cache_blocking(model::xgene(), shape, threads_hint).blocks;
    if (normalize_candidate(&model.bs)) cands.push_back(model);
  }
  return cands;
}

// Coordinate refinements (x0.5 / x2 per dimension) around a winner.
std::vector<Candidate> refine(const Candidate& base) {
  std::vector<Candidate> cands;
  const index_t kcs[] = {base.bs.kc / 2, base.bs.kc * 2};
  const index_t mcs[] = {base.bs.mc / 2, base.bs.mc * 2};
  const index_t ncs[] = {base.bs.nc / 2, base.bs.nc * 2};
  for (const index_t kc : kcs) {
    Candidate c = base;
    c.bs.kc = kc;
    if (normalize_candidate(&c.bs)) cands.push_back(c);
  }
  for (const index_t mc : mcs) {
    Candidate c = base;
    c.bs.mc = mc;
    if (normalize_candidate(&c.bs)) cands.push_back(c);
  }
  for (const index_t nc : ncs) {
    Candidate c = base;
    c.bs.nc = nc;
    if (normalize_candidate(&c.bs)) cands.push_back(c);
  }
  return cands;
}

std::vector<Candidate> propose_f32() {
  std::vector<Candidate> cands;
  const SMicrokernel& kern = best_smicrokernel();
  // Start from sgemm's own untuned blocking.
  Candidate c{nullptr, default_sgemm_block_sizes(KernelShape{kern.mr, kern.nr})};
  if (normalize_candidate(&c.bs)) cands.push_back(c);
  for (Candidate& r : refine(c)) cands.push_back(r);
  return cands;
}

// ---- per-key tuning session ----------------------------------------------

ProbeRequest blocked_request(Precision precision, index_t m, index_t n, index_t k,
                             const Candidate& cand) {
  ProbeRequest req;
  req.precision = precision;
  req.m = m;
  req.n = n;
  req.k = k;
  req.kernel = cand.kernel;
  req.mr = cand.bs.mr;
  req.nr = cand.bs.nr;
  req.kc = std::min(cand.bs.kc, k);
  req.mc = cand.bs.mc;
  req.nc = cand.bs.nc;
  return req;
}

// Probes candidates until the budget runs dry; returns the best index or
// -1 when nothing was measured.
int probe_best(Tuner& t, Precision precision, index_t m, index_t n, index_t k,
               const std::vector<Candidate>& cands, std::vector<double>* scores) {
  int best = -1;
  scores->assign(cands.size(), 0.0);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (t.budget_remaining_ms() <= 0) break;
    const double gflops = run_probe_timed(t, blocked_request(precision, m, n, k, cands[i]));
    (*scores)[i] = gflops;
    if (gflops > 0 && (best < 0 || gflops > (*scores)[static_cast<std::size_t>(best)]))
      best = static_cast<int>(i);
  }
  return best;
}

// Prefetch distances, a one-shot whole-process search that rides the
// first f64 tune session: a small grid over PREA x PREB on the winning
// blocked candidate. Perf-only knobs, so probing and applying them never
// changes numerics.
void tune_prefetch(Tuner& t, index_t m, index_t n, index_t k, const Candidate& best) {
  if (t.prefetch_probed || tune_mode() != kTuneModeOn) return;
  t.prefetch_probed = true;
  if (knob_pinned(Knob::kPrea)) return;
  const index_t model_preb = best.bs.kc * best.bs.nr * static_cast<index_t>(sizeof(double));
  const index_t preas[] = {512, 1024, 2048};
  const index_t prebs[] = {model_preb, 24576};
  index_t best_prea = 0, best_preb = 0;
  double best_gflops = 0;
  for (const index_t prea : preas) {
    for (const index_t preb : prebs) {
      if (t.budget_remaining_ms() <= 0) break;
      ProbeRequest req = blocked_request(Precision::kF64, m, n, k, best);
      req.prea = prea;
      req.preb = preb;
      const double gflops = run_probe_timed(t, req);
      if (gflops > best_gflops) {
        best_gflops = gflops;
        best_prea = prea;
        best_preb = preb;
      }
    }
  }
  if (best_gflops > 0) {
    t.cache.prea = best_prea;
    t.cache.preb = best_preb;
    tuner_apply(Knob::kPrea, best_prea);
    tuner_apply(Knob::kPreb, best_preb);
  }
}

// Assembles the winning config for a key. Called under the tuner mutex.
const TunedConfig* tune_key(Tuner& t, Precision precision, int kind, int decade) {
  const int mode = tune_mode();
  ensure_model(t);
  ensure_cache_loaded(t);
  apply_process_knobs(t);

  const int ci = kind * obs::kShapeDecades + decade;
  const bool invalidated =
      t.pending_invalidate[ci].exchange(false, std::memory_order_acq_rel);

  // Cached winner? (Skipped when drift invalidated the class: the entry
  // is dropped from the cache image and re-probed below.)
  for (std::size_t i = 0; i < t.cache.entries.size(); ++i) {
    TunedConfig& e = t.cache.entries[i];
    if (e.precision != precision || e.kind != kind || e.decade != decade) continue;
    if (invalidated) {
      t.cache.entries.erase(t.cache.entries.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    auto* cfg = new TunedConfig(e);  // immortal
    cfg->source = TuneSource::kCached;
    counters().resolutions[static_cast<int>(TuneSource::kCached)].fetch_add(
        1, std::memory_order_relaxed);
    return cfg;
  }

  // Propose.
  auto* cfg = new TunedConfig;  // immortal
  cfg->precision = precision;
  cfg->kind = kind;
  cfg->decade = decade;

  std::vector<Candidate> cands =
      precision == Precision::kF64 ? propose_f64(/*threads_hint=*/1) : propose_f32();
  if (cands.empty()) return nullptr;

  int winner = 0;  // host-heuristic anchor is the analytic fallback
  double winner_gflops = 0;
  double probe_ms0 = t.budget_spent_ms();
  const bool small_kind = kind == static_cast<int>(obs::ShapeKind::kSmall);

  index_t pm = 0, pn = 0, pk = 0;
  probe_dims(kind, decade, &pm, &pn, &pk);

  // Measure. Small-kind keys skip blocked probing entirely: calls there
  // take the small path, the blocked config is a formality.
  if (mode == kTuneModeOn && !small_kind && t.budget_remaining_ms() > 0) {
    std::vector<double> scores;
    const int best = probe_best(t, precision, pm, pn, pk, cands, &scores);
    if (best >= 0) {
      // Refine around the anchor winner, same budget rules.
      std::vector<Candidate> refined = refine(cands[static_cast<std::size_t>(best)]);
      std::vector<double> rscores;
      const int rbest = probe_best(t, precision, pm, pn, pk, refined, &rscores);
      if (rbest >= 0 && rscores[static_cast<std::size_t>(rbest)] >
                            scores[static_cast<std::size_t>(best)]) {
        cands.push_back(refined[static_cast<std::size_t>(rbest)]);
        winner = static_cast<int>(cands.size()) - 1;
        winner_gflops = rscores[static_cast<std::size_t>(rbest)];
      } else {
        winner = best;
        winner_gflops = scores[static_cast<std::size_t>(best)];
      }
    }
  }

  const Candidate& won = cands[static_cast<std::size_t>(winner)];
  cfg->kernel = won.kernel;
  cfg->kernel_name = won.kernel != nullptr ? won.kernel->name : "";
  cfg->mr = won.bs.mr;
  cfg->nr = won.bs.nr;
  cfg->kc = won.bs.kc;
  cfg->mc = won.bs.mc;
  cfg->nc = won.bs.nc;
  derive_mt_blocking(cfg);
  cfg->gflops = winner_gflops;
  cfg->source = winner_gflops > 0 ? TuneSource::kProbed : TuneSource::kAnalytic;

  // The whole-process one-shot search rides the first probed f64 session.
  if (precision == Precision::kF64 && winner_gflops > 0 && !small_kind) {
    tune_prefetch(t, pm, pn, pk, won);
    cfg->prea = t.cache.prea;
    cfg->preb = t.cache.preb;
  }
  cfg->probe_ms = t.budget_spent_ms() - probe_ms0;

  counters().resolutions[static_cast<int>(cfg->source)].fetch_add(
      1, std::memory_order_relaxed);

  // Persist probed winners so the next process starts warm. The
  // fingerprint is re-stamped at write time: force_retune() and a
  // re-pinned machine model can leave the cache image's copy stale.
  if (cfg->source == TuneSource::kProbed) {
    t.cache.entries.push_back(*cfg);
    const std::string path = tune_cache_path();
    if (!path.empty()) {
      t.cache.fingerprint = t.fingerprint;
      if (write_cache_file(path, t.cache))
        counters().saves.fetch_add(1, std::memory_order_relaxed);
      else
        counters().save_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return cfg;
}

obs::TuneStats tune_stats_snapshot() { return stats(); }

}  // namespace

const char* to_string(Precision p) {
  return p == Precision::kF32 ? "f32" : "f64";
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

const char* to_string(TuneSource s) {
  return obs::tune_source_name(static_cast<int>(s));
}

void set_probe_runner(ProbeFn fn) {
  g_probe_runner.store(fn, std::memory_order_release);
}

void install_default_probe_runner(ProbeFn fn) {
  ProbeFn expected = nullptr;
  g_probe_runner.compare_exchange_strong(expected, fn, std::memory_order_acq_rel);
}

void set_machine_model(double peak_gflops, double mu, double pi) {
  pinned_model().peak.store(peak_gflops, std::memory_order_relaxed);
  pinned_model().mu.store(mu, std::memory_order_relaxed);
  pinned_model().pi.store(pi, std::memory_order_relaxed);
  if (g_tuner_constructed.load(std::memory_order_acquire)) {
    Tuner& t = tuner();
    std::lock_guard lock(t.mutex);
    t.model_ready = false;  // next resolution re-derives the model
  }
}

const TunedConfig* resolve(Precision precision, index_t m, index_t n, index_t k,
                           int threads) {
  (void)threads;  // the key is thread-count invariant; see TunedConfig
  if (tune_mode() == kTuneModeOff) return nullptr;
  const obs::ShapeClass sc = obs::ShapeClass::classify(m, n, k);
  const int kind = static_cast<int>(sc.kind);
  const int idx = key_index(precision, kind, sc.decade);

  Tuner& t = tuner();
  g_tuner_constructed.store(true, std::memory_order_release);
  const TunedConfig* cfg = t.table[idx].load(std::memory_order_acquire);
  if (cfg != nullptr) return cfg;

  prime_host_calibration();
  std::lock_guard lock(t.mutex);
  cfg = t.table[idx].load(std::memory_order_acquire);
  if (cfg != nullptr) return cfg;
  cfg = tune_key(t, precision, kind, sc.decade);
  if (cfg != nullptr) t.table[idx].store(cfg, std::memory_order_release);
  return cfg;
}

void record_call(TuneSource source) {
  counters().calls[static_cast<int>(source)].fetch_add(1, std::memory_order_relaxed);
  // First touch registers the telemetry source (tune-source gauge).
  static const bool registered = [] {
    obs::set_tune_stats_source(&tune_stats_snapshot);
    return true;
  }();
  (void)registered;
}

void force_retune() {
  Tuner& t = tuner();
  g_tuner_constructed.store(true, std::memory_order_release);
  std::lock_guard lock(t.mutex);
  for (auto& slot : t.table) slot.store(nullptr, std::memory_order_release);
  for (auto& flag : t.pending_invalidate) flag.store(false, std::memory_order_relaxed);
  t.cache.entries.clear();
  t.cache.prea = 0;
  t.cache.preb = 0;
  t.cache_loaded = true;  // keep: do NOT re-read the stale file
  t.knobs_applied = true;
  t.prefetch_probed = false;
  counters().cache_entries_loaded.store(0, std::memory_order_relaxed);
}

int save_cache(const std::string& path) {
  Tuner& t = tuner();
  g_tuner_constructed.store(true, std::memory_order_release);
  prime_host_calibration();
  std::lock_guard lock(t.mutex);
  ensure_model(t);
  ensure_cache_loaded(t);
  const std::string target = path.empty() ? tune_cache_path() : path;
  if (target.empty()) return -1;
  t.cache.fingerprint = t.fingerprint;  // see tune_key: never save a stale stamp
  if (write_cache_file(target, t.cache)) {
    counters().saves.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  counters().save_failures.fetch_add(1, std::memory_order_relaxed);
  return -1;
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
  s.probes_run = c.probes_run.load(std::memory_order_relaxed);
  s.probe_ms_spent =
      static_cast<double>(c.probe_us_spent.load(std::memory_order_relaxed)) / 1000.0;
  s.budget_ms = static_cast<double>(tune_budget_ms());
  s.invalidations = c.invalidations.load(std::memory_order_relaxed);
  s.saves = c.saves.load(std::memory_order_relaxed);
  s.save_failures = c.save_failures.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ag::tune
