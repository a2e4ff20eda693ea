#include "obs/telemetry.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>

#if !defined(_WIN32)
#include <signal.h>
#endif

#include "common/atomic_file.hpp"
#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "obs/calibrate.hpp"
#include "obs/expected.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/pmu.hpp"

namespace ag::obs {

const char* to_string(ShapeKind k) {
  switch (k) {
    case ShapeKind::kSmall: return "small";
    case ShapeKind::kSkinny: return "skinny";
    case ShapeKind::kSquare: return "square";
    case ShapeKind::kLarge: return "large";
    case ShapeKind::kBatch: return "batch";
    default: return "?";
  }
}

ShapeClass ShapeClass::from_index(int index) {
  ShapeClass sc;
  if (index < 0) index = 0;
  if (index >= kShapeClasses) index = kShapeClasses - 1;
  sc.kind = static_cast<ShapeKind>(index / kShapeDecades);
  sc.decade = index % kShapeDecades;
  return sc;
}

ShapeClass ShapeClass::classify(std::int64_t m, std::int64_t n, std::int64_t k) {
  ShapeClass sc;
  const double p = static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  int d = 0;
  double decade_edge = 10.0;
  while (d < kShapeDecades - 1 && p >= decade_edge) {
    ++d;
    decade_edge *= 10.0;
  }
  sc.decade = d;
  if (use_small_gemm(m, n, k)) {
    sc.kind = ShapeKind::kSmall;
    return sc;
  }
  const std::int64_t mx = std::max(m, std::max(n, k));
  const std::int64_t mn = std::min(m, std::min(n, k));
  if (mx >= 4 * mn) {
    sc.kind = ShapeKind::kSkinny;
  } else if (p >= 16777216.0) {  // 256^3: operands no longer cache-resident
    sc.kind = ShapeKind::kLarge;
  } else {
    sc.kind = ShapeKind::kSquare;
  }
  return sc;
}

std::string ShapeClass::label() const {
  std::ostringstream os;
  os << to_string(kind) << "/d" << decade;
  return os.str();
}

namespace {

/// How many latency records a (lane, class) needs before the slow-call
/// detector arms, and how often its rolling p99 refreshes. Both are the
/// same power of two: the first refresh happens at record 64, so the
/// reference quantile always rests on a full window.
constexpr std::uint64_t kSlowCallRefresh = 64;

/// Per-shape-class recording state of one lane, allocated on first use so
/// idle classes cost one null pointer each.
struct ClassHists {
  AtomicHistogram<kLatencyBuckets> latency;      // nanoseconds
  AtomicHistogram<kEfficiencyBuckets> efficiency;  // micro-fractions
  // Phase attribution: per-phase share-of-wall histograms (micro-shares,
  // efficiency-bucket geometry) plus attributed-nanosecond totals; only
  // touched when the call carried a timeline.
  std::array<AtomicHistogram<kEfficiencyBuckets>, kPhaseCount> phase_share;
  std::array<std::atomic<std::uint64_t>, kPhaseCount> phase_ns{};
  std::atomic<std::uint64_t> phase_calls{0};
  // Slow-call detection: records seen (drives the refresh cadence) and
  // the rolling p99 in nanoseconds (0 until the warm-up completes).
  std::atomic<std::uint64_t> lat_records{0};
  std::atomic<std::uint64_t> p99_ns{0};

  void reset() {
    latency.reset();
    efficiency.reset();
    for (auto& h : phase_share) h.reset();
    for (auto& n : phase_ns) n.store(0, std::memory_order_relaxed);
    phase_calls.store(0, std::memory_order_relaxed);
    lat_records.store(0, std::memory_order_relaxed);
    p99_ns.store(0, std::memory_order_relaxed);
  }
};

/// One recording thread's telemetry state. Lanes are created on a
/// thread's first record (or eagerly by telemetry_register_thread), live
/// for the process lifetime, and are only ever appended to the registry —
/// so recorders touch no registry lock on the hot path.
struct Lane {
  mutable std::mutex name_mutex;
  std::string name;
  std::array<std::atomic<ClassHists*>, kShapeClasses> classes{};
  AtomicHistogram<kLatencyBuckets> barrier_wait;  // nanoseconds
  AtomicHistogram<kLatencyBuckets> queue_wait;    // nanoseconds, batch tickets
  std::atomic<FlightRecorder*> flight{nullptr};

  ~Lane() {
    for (auto& slot : classes) delete slot.load(std::memory_order_relaxed);
    delete flight.load(std::memory_order_relaxed);
  }

  ClassHists& class_hists(int idx) {
    auto& slot = classes[static_cast<std::size_t>(idx)];
    ClassHists* p = slot.load(std::memory_order_acquire);
    if (!p) {
      auto* fresh = new ClassHists;
      if (slot.compare_exchange_strong(p, fresh, std::memory_order_acq_rel))
        p = fresh;
      else
        delete fresh;  // another recorder won; p holds the winner
    }
    return *p;
  }

  FlightRecorder& flight_rec() {
    FlightRecorder* p = flight.load(std::memory_order_acquire);
    if (!p) {
      auto* fresh = new FlightRecorder(static_cast<std::size_t>(flight_depth()));
      if (flight.compare_exchange_strong(p, fresh, std::memory_order_acq_rel))
        p = fresh;
      else
        delete fresh;
    }
    return *p;
  }

  std::string get_name() const {
    std::lock_guard lock(name_mutex);
    return name;
  }
};

struct DriftState {
  std::mutex mutex;
  DriftDetector detector;
};

constexpr std::size_t kMaxAnomalyEvents = 64;

struct Telemetry {
  // Hot-path fields first: every record_call reads epoch, have_model and
  // peak_gflops and checks dump_requested, so they share the leading cache
  // lines instead of sitting after the multi-KB drift array.
  std::atomic<double> epoch{0};

  // Expected-efficiency model, published under model_mutex (by
  // ensure_model from the host calibration, or by telemetry_set_model);
  // have_model turns true once the parameters are in place. The
  // parameters are individually atomic so a concurrent set_model never
  // tears a reader.
  std::atomic<bool> have_model{false};
  std::mutex model_mutex;
  std::atomic<double> peak_gflops{0};
  std::atomic<double> mu{0}, pi{0}, kappa{0.125}, psi_c{1.0};

  std::atomic<bool> dump_requested{false};
  std::atomic<bool> dump_in_progress{false};
  std::atomic<bool> signal_installed{false};

  std::mutex lanes_mutex;
  std::vector<std::unique_ptr<Lane>> lanes;

  std::array<DriftState, kShapeClasses> drift;
  std::mutex anomalies_mutex;
  std::vector<AnomalyEvent> anomalies;       // bounded; oldest dropped
  std::atomic<std::uint64_t> anomaly_count{0};

  Telemetry() { epoch.store(now_seconds(), std::memory_order_relaxed); }
};

std::atomic<Telemetry*> g_instance{nullptr};

Telemetry& T() {
  static Telemetry* t = [] {
    auto* fresh = new Telemetry;  // leaky: reachable via g_instance, safe in signal handlers
    g_instance.store(fresh, std::memory_order_release);
    return fresh;
  }();
  return *t;
}

// The recording helpers below run only in the stats-on bodies of the
// entry points, so a -DARMGEMM_STATS=OFF build compiles none of them.
#ifndef ARMGEMM_STATS_DISABLED
thread_local Lane* t_lane = nullptr;

Lane& local_lane() {
  if (t_lane) return *t_lane;
  Telemetry& t = T();
  std::lock_guard lock(t.lanes_mutex);
  auto lane = std::make_unique<Lane>();
  {
    std::lock_guard name_lock(lane->name_mutex);
    lane->name = "host-" + std::to_string(t.lanes.size());
  }
  t_lane = lane.get();
  t.lanes.push_back(std::move(lane));
  return *t_lane;
}
#endif

#if !defined(_WIN32)
void sigusr2_handler(int) {
  // Async-signal-safe: one relaxed store; the dump itself happens on the
  // next recorded call.
  Telemetry* t = g_instance.load(std::memory_order_relaxed);
  if (t) t->dump_requested.store(true, std::memory_order_relaxed);
}
#endif

void ensure_signal_handler() {
#if !defined(_WIN32)
  Telemetry& t = T();
  if (t.signal_installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction sa {};
  sa.sa_handler = sigusr2_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR2, &sa, nullptr);
#endif
}

/// Publishes the expected-efficiency model unless one is in place (an
/// injected model wins): mu/pi/psi from the process's one host calibration
/// (obs/calibrate host_calibration), whose probes run here if no thread has
/// started them. It never waits: while another thread runs the probes, or
/// holds model_mutex, it returns and recorders skip the model-derived
/// fields until a later call finds the calibration ready.
void ensure_model() {
  Telemetry& t = T();
  if (t.have_model.load(std::memory_order_acquire)) return;
  const CalibrationResult* cal = host_calibration(/*wait=*/false);
  if (cal == nullptr) return;
  std::unique_lock lock(t.model_mutex, std::try_to_lock);
  if (!lock.owns_lock() || t.have_model.load(std::memory_order_relaxed)) return;
  ensure_signal_handler();
  t.peak_gflops.store(cal->peak_gflops, std::memory_order_relaxed);
  t.mu.store(cal->mu, std::memory_order_relaxed);
  t.pi.store(cal->pi, std::memory_order_relaxed);
  t.kappa.store(0.125, std::memory_order_relaxed);
  t.psi_c.store(cal->psi_c, std::memory_order_relaxed);
  t.have_model.store(true, std::memory_order_release);
}

bool model_ready() { return T().have_model.load(std::memory_order_acquire); }

#ifndef ARMGEMM_STATS_DISABLED
/// Expected Gflops for one call under the Section III model, memoized per
/// thread (direct-mapped, 8 entries) so shape-repeating serving traffic
/// pays a few compares per call.
struct MemoEntry {
  std::int64_t m = -1, n = -1, k = -1;
  int threads = 0;
  std::int64_t mc = 0, nc = 0, kc = 0;
  double expected_gflops = 0;
};
thread_local std::array<MemoEntry, 8> t_memo;

double expected_gflops_for(std::int64_t m, std::int64_t n, std::int64_t k, int threads,
                           const BlockSizes& bs) {
  const std::uint64_t h = static_cast<std::uint64_t>(m) * 1315423911ull ^
                          static_cast<std::uint64_t>(n) * 2654435761ull ^
                          static_cast<std::uint64_t>(k) * 97531ull ^
                          static_cast<std::uint64_t>(threads);
  MemoEntry& e = t_memo[h & 7];
  if (e.m == m && e.n == n && e.k == k && e.threads == threads && e.mc == bs.mc &&
      e.nc == bs.nc && e.kc == bs.kc)
    return e.expected_gflops;

  Telemetry& t = T();
  const LayerCounters exp = expected_gemm_counters(m, n, k, bs);
  const double flops = exp.flops;
  double words = exp.total_bytes() / 8.0;
  if (words <= 0) words = 1;
  model::CostParams cost;
  cost.mu = t.mu.load(std::memory_order_relaxed);
  cost.pi = t.pi.load(std::memory_order_relaxed);
  cost.kappa = t.kappa.load(std::memory_order_relaxed);
  const double per_core =
      model::perf_lower_bound(flops / words, cost, t.psi_c.load(std::memory_order_relaxed));
  const double expected = static_cast<double>(threads) * per_core * 1e-9;

  e = {m, n, k, threads, bs.mc, bs.nc, bs.kc, expected};
  return expected;
}

/// Folds a finished phase timeline into the class's share histograms and
/// stamps it on the flight record. Records a share for every phase (zeros
/// included) so the share distributions answer "how often is this phase
/// absent" as well as "how big is it when present".
void record_phases(ClassHists& hists, const CallPhases& ph, double wall,
                   CallRecord& rec) {
  if (!(wall > 0)) return;
  hists.phase_calls.fetch_add(1, std::memory_order_relaxed);
  const double inv_wall = 1.0 / wall;
  for (int p = 0; p < kPhaseCount; ++p) {
    const double sec = ph.attributed(p);
    double share = sec * inv_wall;
    if (!(share > 0)) share = 0;
    if (share > 1.25) share = 1.25;  // clamp into the finite buckets
    hists.phase_share[static_cast<std::size_t>(p)].record(
        efficiency_bucket(share), static_cast<std::uint64_t>(share * kShareScale));
    if (sec > 0)
      hists.phase_ns[static_cast<std::size_t>(p)].fetch_add(
          static_cast<std::uint64_t>(sec * 1e9), std::memory_order_relaxed);
  }
  rec.phases = ph;
}

/// Slow-call detection against the lane's own class distribution: counts
/// the record, refreshes the rolling p99 every kSlowCallRefresh records,
/// and reports whether this call exceeded factor * p99. The p99 the call
/// is judged against predates the call itself (the refresh ran at the
/// previous multiple), so one outlier never raises its own bar.
bool check_slow_call(ClassHists& hists, std::uint64_t ns, double factor,
                     double* p99_seconds) {
  const std::uint64_t count =
      hists.lat_records.fetch_add(1, std::memory_order_relaxed) + 1;
  if (count >= kSlowCallRefresh && count % kSlowCallRefresh == 0) {
    const LatencyHistogram snap = hists.latency.snapshot(1e-9);
    hists.p99_ns.store(static_cast<std::uint64_t>(latency_quantile(snap, 0.99) * 1e9),
                       std::memory_order_relaxed);
  }
  if (factor <= 0) return false;
  const std::uint64_t p99 = hists.p99_ns.load(std::memory_order_relaxed);
  if (p99 == 0) return false;
  if (static_cast<double>(ns) <= factor * static_cast<double>(p99)) return false;
  *p99_seconds = static_cast<double>(p99) * 1e-9;
  return true;
}

void note_anomaly(Telemetry& t, const AnomalyEvent& ev) {
  if (!ev.recovered) t.anomaly_count.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(t.anomalies_mutex);
  if (t.anomalies.size() >= kMaxAnomalyEvents)
    t.anomalies.erase(t.anomalies.begin());
  t.anomalies.push_back(ev);
}
#endif

}  // namespace

// ---- hot-path entry points -----------------------------------------------

void telemetry_record_call(std::int64_t m, std::int64_t n, std::int64_t k, int threads,
                           ScheduleKind schedule, double seconds, const BlockSizes& bs,
                           double end_time_seconds, const CallPhases* phases) {
#ifdef ARMGEMM_STATS_DISABLED
  (void)m; (void)n; (void)k; (void)threads; (void)schedule; (void)seconds; (void)bs;
  (void)end_time_seconds; (void)phases;
#else
  if (!telemetry_active()) return;
  Telemetry& t = T();
  if (!t.have_model.load(std::memory_order_acquire)) ensure_model();

  Lane& lane = local_lane();
  const ShapeClass sc = ShapeClass::classify(m, n, k);
  const int ci = sc.index();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  const double gflops = seconds > 0 ? flops / seconds * 1e-9 : 0.0;

  ClassHists& hists = lane.class_hists(ci);
  const double ns_d = seconds > 0 ? seconds * 1e9 : 0.0;
  const std::uint64_t ns = static_cast<std::uint64_t>(ns_d < 1.8e19 ? ns_d : 1.8e19);
  hists.latency.record(latency_bucket(ns), ns);

  double slow_p99 = 0;
  const double slow_factor = slow_call_factor();
  const bool slow_call = check_slow_call(hists, ns, slow_factor, &slow_p99);
  if (slow_call) forensics_note_slow_call();

  const double peak = t.peak_gflops.load(std::memory_order_relaxed);
  double efficiency = 0.0;
  if (peak > 0 && threads > 0) efficiency = gflops / (peak * static_cast<double>(threads));
  const double eff_clamped = std::min(std::max(efficiency, 0.0), 1e6);
  hists.efficiency.record(efficiency_bucket(efficiency),
                          static_cast<std::uint64_t>(eff_clamped * 1e6));

  CallRecord rec;
  rec.t = (end_time_seconds >= 0 ? end_time_seconds : now_seconds()) -
          t.epoch.load(std::memory_order_relaxed);
  rec.m = m;
  rec.n = n;
  rec.k = k;
  rec.threads = threads;
  rec.schedule = schedule;
  rec.shape_class = ci;
  rec.seconds = seconds;
  rec.gflops = gflops;
  rec.efficiency = efficiency;
  // Probe PMU provenance once per process: hardware_available() costs a
  // perf_event_open/close syscall pair, far too hot for the record path.
  static const bool pmu_hw = PmuGroup::hardware_available();
  rec.pmu_hardware = pmu_hw;

  if (phases) record_phases(hists, *phases, seconds, rec);

  bool drift_onset = false;
  AnomalyEvent anomaly;
  if (model_ready()) {
    rec.expected_gflops = expected_gflops_for(m, n, k, threads, bs);
    if (rec.expected_gflops > 0 && gflops > 0) {
      const double ratio = gflops / rec.expected_gflops;
      DriftState& ds = t.drift[static_cast<std::size_t>(ci)];
      DriftDetector::Event ev;
      const double thr = drift_threshold();
      {
        std::lock_guard lock(ds.mutex);
        if (ds.detector.config().threshold != thr) {
          DriftConfig cfg = ds.detector.config();
          cfg.threshold = thr;
          ds.detector.set_config(cfg);
        }
        ev = ds.detector.observe(ratio);
        anomaly.fast_ewma = ds.detector.fast_ewma();
        anomaly.reference_ewma = ds.detector.reference_ewma();
        anomaly.threshold = thr;
      }
      if (ev != DriftDetector::Event::kNone) {
        anomaly.t = rec.t;
        anomaly.shape_class = ci;
        anomaly.recovered = ev == DriftDetector::Event::kRecovered;
        anomaly.trigger = rec;
        note_anomaly(t, anomaly);
        // Drift onset auto-dumps the flight recorder + metrics (when a
        // metrics path is configured).
        if (!anomaly.recovered) {
          drift_onset = true;
          t.dump_requested.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  lane.flight_rec().record(rec);

  // Forensics after the flight record so the bundle's window includes the
  // offending call itself. Drift wins when both fired on one call.
  if (drift_onset || slow_call) {
    ForensicsTrigger trigger;
    trigger.reason =
        drift_onset ? ForensicsReason::kDrift : ForensicsReason::kSlowCall;
    trigger.call = rec;
    trigger.have_call = true;
    trigger.bs = bs;
    trigger.fast_ewma = anomaly.fast_ewma;
    trigger.reference_ewma = anomaly.reference_ewma;
    trigger.drift_threshold = anomaly.threshold;
    trigger.p99_seconds = slow_p99;
    trigger.slow_factor = slow_factor;
    forensics_capture(trigger);
  }

  if (t.dump_requested.load(std::memory_order_relaxed) &&
      t.dump_requested.exchange(false, std::memory_order_acq_rel))
    telemetry_write_metrics("");
#endif
}

void telemetry_record_batch_entry(std::int64_t m, std::int64_t n, std::int64_t k,
                                  int threads, double service_seconds,
                                  double queue_wait_seconds,
                                  std::uint64_t cache_hits,
                                  std::uint64_t cache_misses,
                                  const CallPhases* phases) {
#ifdef ARMGEMM_STATS_DISABLED
  (void)m; (void)n; (void)k; (void)threads; (void)service_seconds;
  (void)queue_wait_seconds; (void)cache_hits; (void)cache_misses; (void)phases;
#else
  if (!telemetry_active()) return;
  Telemetry& t = T();
  if (!t.have_model.load(std::memory_order_acquire)) ensure_model();
  Lane& lane = local_lane();

  // Same decade as classify() would assign, but forced into the batch kind.
  ShapeClass sc = ShapeClass::classify(m, n, k);
  sc.kind = ShapeKind::kBatch;
  const int ci = sc.index();

  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  const double gflops = service_seconds > 0 ? flops / service_seconds * 1e-9 : 0.0;

  ClassHists& hists = lane.class_hists(ci);
  const double ns_d = service_seconds > 0 ? service_seconds * 1e9 : 0.0;
  const std::uint64_t ns = static_cast<std::uint64_t>(ns_d < 1.8e19 ? ns_d : 1.8e19);
  hists.latency.record(latency_bucket(ns), ns);

  const double peak = t.peak_gflops.load(std::memory_order_relaxed);
  double efficiency = 0.0;
  if (peak > 0 && threads > 0) efficiency = gflops / (peak * static_cast<double>(threads));
  const double eff_clamped = std::min(std::max(efficiency, 0.0), 1e6);
  hists.efficiency.record(efficiency_bucket(efficiency),
                          static_cast<std::uint64_t>(eff_clamped * 1e6));

  const double qw_ns_d = queue_wait_seconds > 0 ? queue_wait_seconds * 1e9 : 0.0;
  const std::uint64_t qw_ns =
      static_cast<std::uint64_t>(qw_ns_d < 1.8e19 ? qw_ns_d : 1.8e19);
  lane.queue_wait.record(latency_bucket(qw_ns), qw_ns);

  CallRecord rec;
  rec.t = now_seconds() - t.epoch.load(std::memory_order_relaxed);
  rec.m = m;
  rec.n = n;
  rec.k = k;
  rec.threads = threads;
  rec.schedule = ScheduleKind::kBatch;
  rec.shape_class = ci;
  rec.seconds = service_seconds;
  rec.gflops = gflops;
  rec.efficiency = efficiency;
  rec.queue_wait_seconds = queue_wait_seconds;
  rec.cache_hits = cache_hits;
  rec.cache_misses = cache_misses;
  if (phases) record_phases(hists, *phases, service_seconds, rec);
  lane.flight_rec().record(rec);
#endif
}

void telemetry_record_barrier_wait(double seconds) {
#ifdef ARMGEMM_STATS_DISABLED
  (void)seconds;
#else
  if (!telemetry_active()) return;
  Lane& lane = local_lane();
  const double ns_d = seconds > 0 ? seconds * 1e9 : 0.0;
  const std::uint64_t ns = static_cast<std::uint64_t>(ns_d < 1.8e19 ? ns_d : 1.8e19);
  lane.barrier_wait.record(latency_bucket(ns), ns);
#endif
}

void telemetry_register_thread(const std::string& name) {
#ifdef ARMGEMM_STATS_DISABLED
  (void)name;
#else
  Lane& lane = local_lane();
  std::lock_guard lock(lane.name_mutex);
  lane.name = name;
#endif
}

// ---- lifecycle -----------------------------------------------------------

void telemetry_enable() {
  if constexpr (!stats_compiled_in) return;
  ensure_signal_handler();
  ensure_model();
  set_knob(Knob::kTelemetry, true);
}

void telemetry_disable() { set_knob(Knob::kTelemetry, false); }

bool telemetry_enabled() { return ag::detail::knob_bits(Knob::kTelemetry) != 0; }

void telemetry_reset() {
  Telemetry& t = T();
  {
    std::lock_guard lock(t.lanes_mutex);
    for (auto& lane : t.lanes) {
      for (auto& slot : lane->classes) {
        ClassHists* h = slot.load(std::memory_order_acquire);
        if (h) h->reset();
      }
      lane->barrier_wait.reset();
      lane->queue_wait.reset();
      FlightRecorder* f = lane->flight.load(std::memory_order_acquire);
      if (f) f->reset(flight_depth());
    }
  }
  for (auto& ds : t.drift) {
    std::lock_guard lock(ds.mutex);
    ds.detector.reset();
  }
  {
    std::lock_guard lock(t.anomalies_mutex);
    t.anomalies.clear();
  }
  t.anomaly_count.store(0, std::memory_order_relaxed);
  t.dump_requested.store(false, std::memory_order_relaxed);
  t.epoch.store(now_seconds(), std::memory_order_relaxed);
  forensics_reset();
}

void telemetry_set_model(double peak_gflops_per_core, const model::CostParams& cost,
                         double psi_c) {
  Telemetry& t = T();
  std::lock_guard lock(t.model_mutex);
  if (peak_gflops_per_core <= 0) {
    t.have_model.store(false, std::memory_order_release);
    t.peak_gflops.store(0, std::memory_order_relaxed);
    return;
  }
  t.peak_gflops.store(peak_gflops_per_core, std::memory_order_relaxed);
  t.mu.store(cost.mu, std::memory_order_relaxed);
  t.pi.store(cost.pi, std::memory_order_relaxed);
  t.kappa.store(cost.kappa, std::memory_order_relaxed);
  t.psi_c.store(psi_c, std::memory_order_relaxed);
  t.have_model.store(true, std::memory_order_release);
}

bool telemetry_model_params(double* peak_gflops_per_core, model::CostParams* cost,
                            double* psi_c) {
  Telemetry& t = T();
  if (!model_ready()) return false;
  if (peak_gflops_per_core)
    *peak_gflops_per_core = t.peak_gflops.load(std::memory_order_relaxed);
  if (cost) {
    cost->mu = t.mu.load(std::memory_order_relaxed);
    cost->pi = t.pi.load(std::memory_order_relaxed);
    cost->kappa = t.kappa.load(std::memory_order_relaxed);
  }
  if (psi_c) *psi_c = t.psi_c.load(std::memory_order_relaxed);
  return true;
}

// ---- snapshot ------------------------------------------------------------

TelemetrySnapshot telemetry_snapshot() {
  Telemetry& t = T();
  TelemetrySnapshot s;
  s.enabled = telemetry_enabled();
  s.uptime_seconds = now_seconds() - t.epoch.load(std::memory_order_relaxed);
  s.peak_gflops_per_core =
      model_ready() ? t.peak_gflops.load(std::memory_order_relaxed) : 0.0;
  s.anomaly_count = t.anomaly_count.load(std::memory_order_relaxed);

  std::lock_guard lock(t.lanes_mutex);
  for (int ci = 0; ci < kShapeClasses; ++ci) {
    LatencyHistogram lat;
    EfficiencyHistogram eff;
    std::array<PhaseShareHistogram, kPhaseCount> shares{};
    std::array<double, kPhaseCount> phase_seconds{};
    std::uint64_t phase_calls = 0;
    for (const auto& lane : t.lanes) {
      const ClassHists* h = lane->classes[static_cast<std::size_t>(ci)].load(
          std::memory_order_acquire);
      if (!h) continue;
      lat += h->latency.snapshot(1e-9);
      eff += h->efficiency.snapshot(1e-6);
      phase_calls += h->phase_calls.load(std::memory_order_relaxed);
      for (int p = 0; p < kPhaseCount; ++p) {
        shares[static_cast<std::size_t>(p)] +=
            h->phase_share[static_cast<std::size_t>(p)].snapshot(1.0 / kShareScale);
        phase_seconds[static_cast<std::size_t>(p)] +=
            static_cast<double>(
                h->phase_ns[static_cast<std::size_t>(p)].load(std::memory_order_relaxed)) *
            1e-9;
      }
    }
    if (lat.total == 0) continue;
    ClassSnapshot cs;
    cs.shape = ShapeClass::from_index(ci);
    cs.calls = lat.total;
    cs.latency = lat;
    cs.efficiency = eff;
    cs.p50 = latency_quantile(lat, 0.50);
    cs.p95 = latency_quantile(lat, 0.95);
    cs.p99 = latency_quantile(lat, 0.99);
    cs.phase_samples = phase_calls;
    for (int p = 0; p < kPhaseCount; ++p) {
      PhaseStat& ps = cs.phases[static_cast<std::size_t>(p)];
      const PhaseShareHistogram& h = shares[static_cast<std::size_t>(p)];
      ps.samples = h.total;
      ps.seconds = phase_seconds[static_cast<std::size_t>(p)];
      ps.mean_share = h.mean();
      ps.p50 = share_quantile(h, 0.50);
      ps.p95 = share_quantile(h, 0.95);
      ps.p99 = share_quantile(h, 0.99);
    }
    {
      DriftState& ds = t.drift[static_cast<std::size_t>(ci)];
      std::lock_guard drift_lock(ds.mutex);
      cs.drift_fast = ds.detector.fast_ewma();
      cs.drift_reference = ds.detector.reference_ewma();
      cs.drift_samples = ds.detector.samples();
      cs.in_drift = ds.detector.in_drift();
      cs.anomalies = ds.detector.anomalies();
    }
    s.total_calls += cs.calls;
    s.classes.push_back(std::move(cs));
  }

  for (const auto& lane : t.lanes) {
    const FlightRecorder* f = lane->flight.load(std::memory_order_acquire);
    if (f) {
      s.flight_recorded += f->recorded();
      auto recent = f->recent();
      s.flight.insert(s.flight.end(), recent.begin(), recent.end());
    }
    const LatencyHistogram bw = lane->barrier_wait.snapshot(1e-9);
    const LatencyHistogram qw = lane->queue_wait.snapshot(1e-9);
    if (bw.total > 0 || qw.total > 0)
      s.workers.push_back({lane->get_name(), bw, qw});
  }
  std::stable_sort(s.flight.begin(), s.flight.end(),
                   [](const CallRecord& a, const CallRecord& b) { return a.t < b.t; });

  {
    std::lock_guard anomaly_lock(t.anomalies_mutex);
    s.anomalies = t.anomalies;
  }

  // Serving-runtime introspection, pulled through the registered sources
  // (empty until the pool / cache singleton has come up).
  s.scheduler_available = scheduler_stats_available();
  if (s.scheduler_available) s.scheduler = scheduler_stats();
  s.panel_cache_available = panel_cache_stats_available();
  if (s.panel_cache_available) s.panel_cache = panel_cache_stats();
  s.tune_available = tune_stats_available();
  if (s.tune_available) s.tune = tune_stats();
  s.topology_available = topology_stats_available();
  if (s.topology_available) s.topology = topology_stats();
  s.forensics = forensics_stats();
  return s;
}

// ---- exposition ----------------------------------------------------------

std::string telemetry_render_prometheus() {
  return render_metrics(telemetry_snapshot(), MetricsFormat::kPrometheus);
}

std::string telemetry_render_json() {
  return render_metrics(telemetry_snapshot(), MetricsFormat::kJson);
}

int telemetry_write_metrics(const std::string& path) {
  Telemetry& t = T();
  // A drift-triggered dump during the dump's own rendering must not
  // recurse; one dump at a time is plenty.
  if (t.dump_in_progress.exchange(true, std::memory_order_acq_rel)) return -1;
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false, std::memory_order_release); }
  } release{t.dump_in_progress};

  const std::string target = path.empty() ? metrics_path() : path;
  if (target.empty()) return -1;
  // Both files render one snapshot, and each is published atomically, so
  // a concurrent scraper (or armgemm-top) reads either file whole.
  const TelemetrySnapshot s = telemetry_snapshot();
  if (!write_file_atomically(target, render_metrics(s, MetricsFormat::kPrometheus))) return -1;
  if (!write_file_atomically(target + ".json", render_metrics(s, MetricsFormat::kJson) + "\n"))
    return -1;
  return 0;
}

int telemetry_dump_flight(const std::string& path) {
  if (path.empty()) return -1;
  // Published like the metrics files, so a reader polling the path sees
  // the previous array or the new one whole.
  const std::string body = flight_to_json(telemetry_snapshot().flight) + "\n";
  return write_file_atomically(path, body) ? 0 : -1;
}

std::uint64_t telemetry_anomaly_count() {
  return T().anomaly_count.load(std::memory_order_relaxed);
}

}  // namespace ag::obs
