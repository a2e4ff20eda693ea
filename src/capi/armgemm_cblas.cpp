#include "capi/armgemm_cblas.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "blas3/blas3.hpp"
#include "common/check.hpp"
#include "common/knobs.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/sgemm.hpp"
#include "core/tuning.hpp"
#include "obs/forensics.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/pmu.hpp"
#include "obs/telemetry.hpp"
#include "threading/topology.hpp"

namespace {

std::atomic<int> g_threads{1};
std::atomic<bool> g_stats_enabled{false};
std::atomic<bool> g_pmu_enabled{false};

/// Process-wide collector shared by every host thread's context; the
/// per-slot atomics make concurrent recording race-free.
ag::obs::GemmStats& global_stats() {
  static ag::obs::GemmStats stats;
  return stats;
}

/// Process-wide hardware-counter collector; attached to global_stats()
/// by armgemm_pmu_enable (its per-rank mutexes make recording race-free).
ag::obs::PmuCollector& global_pmu() {
  static ag::obs::PmuCollector pmu;
  return pmu;
}

/// The snprintf contract of the C API's text getters: writes at most
/// len-1 bytes of `text` plus a NUL and returns the full length.
long long copy_text(const std::string& text, char* buf, size_t len) {
  if (buf && len > 0) {
    const size_t copy = std::min(len - 1, text.size());
    std::memcpy(buf, text.data(), copy);
    buf[copy] = '\0';
  }
  return static_cast<long long>(text.size());
}

ag::Layout to_layout(CBLAS_ORDER o) {
  return o == CblasColMajor ? ag::Layout::ColMajor : ag::Layout::RowMajor;
}
ag::Trans to_trans(CBLAS_TRANSPOSE t) {
  // Real-valued routines: ConjTrans degenerates to Trans.
  return t == CblasNoTrans ? ag::Trans::NoTrans : ag::Trans::Trans;
}
ag::Uplo to_uplo(CBLAS_UPLO u) { return u == CblasUpper ? ag::Uplo::Upper : ag::Uplo::Lower; }
ag::Diag to_diag(CBLAS_DIAG d) { return d == CblasNonUnit ? ag::Diag::NonUnit : ag::Diag::Unit; }
ag::Side to_side(CBLAS_SIDE s) { return s == CblasLeft ? ag::Side::Left : ag::Side::Right; }

/// Context cache for cblas_* calls: one per host thread, so concurrent
/// callers never mutate a shared Context when armgemm_set_num_threads or
/// armgemm_stats_enable changes the process-wide configuration mid-flight
/// (each thread re-syncs at its own next call).
ag::Context& context() {
  // Tunable: cblas callers never configured the context themselves, so
  // the autotuner owns kernel + blocking selection for their calls.
  thread_local ag::Context ctx = [] {
    ag::Context c(ag::KernelShape{8, 6}, 1);
    c.set_tunable(true);
    return c;
  }();
  const int want = g_threads.load();
  if (ctx.threads() != want) ctx.set_threads(want);
  ctx.set_stats(g_stats_enabled.load(std::memory_order_relaxed) ? &global_stats() : nullptr);
  return ctx;
}

// Row-major triangular/symmetric cases reduce to column-major on the
// implicitly transposed matrices:
//   row-major A (uplo U) == col-major A^T (uplo swapped).
ag::Uplo flip(ag::Uplo u) { return u == ag::Uplo::Upper ? ag::Uplo::Lower : ag::Uplo::Upper; }
ag::Trans flip(ag::Trans t) {
  return t == ag::Trans::NoTrans ? ag::Trans::Trans : ag::Trans::NoTrans;
}
ag::Side flip(ag::Side s) { return s == ag::Side::Left ? ag::Side::Right : ag::Side::Left; }

}  // namespace

extern "C" {

void cblas_dgemm(CBLAS_ORDER order, CBLAS_TRANSPOSE trans_a, CBLAS_TRANSPOSE trans_b, int m,
                 int n, int k, double alpha, const double* a, int lda, const double* b,
                 int ldb, double beta, double* c, int ldc) {
  ag::dgemm(to_layout(order), to_trans(trans_a), to_trans(trans_b), m, n, k, alpha, a, lda, b,
            ldb, beta, c, ldc, context());
}

void cblas_sgemm(CBLAS_ORDER order, CBLAS_TRANSPOSE trans_a, CBLAS_TRANSPOSE trans_b, int m,
                 int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
                 float beta, float* c, int ldc) {
  ag::SgemmOptions opts;
  opts.threads = g_threads.load();
  opts.tunable = true;
  ag::sgemm(to_layout(order), to_trans(trans_a), to_trans(trans_b), m, n, k, alpha, a, lda, b,
            ldb, beta, c, ldc, opts);
}

void cblas_dsyrk(CBLAS_ORDER order, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans, int n, int k,
                 double alpha, const double* a, int lda, double beta, double* c, int ldc) {
  if (order == CblasColMajor) {
    ag::dsyrk(to_uplo(uplo), to_trans(trans), n, k, alpha, a, lda, beta, c, ldc, context());
  } else {
    // Row-major C is col-major C^T; C^T = alpha op(A)^~ op(A)^~T + ...
    ag::dsyrk(flip(to_uplo(uplo)), flip(to_trans(trans)), n, k, alpha, a, lda, beta, c, ldc,
              context());
  }
}

void cblas_dsymm(CBLAS_ORDER order, CBLAS_SIDE side, CBLAS_UPLO uplo, int m, int n,
                 double alpha, const double* a, int lda, const double* b, int ldb, double beta,
                 double* c, int ldc) {
  if (order == CblasColMajor) {
    ag::dsymm(to_side(side), to_uplo(uplo), m, n, alpha, a, lda, b, ldb, beta, c, ldc,
              context());
  } else {
    ag::dsymm(flip(to_side(side)), flip(to_uplo(uplo)), n, m, alpha, a, lda, b, ldb, beta, c,
              ldc, context());
  }
}

void cblas_dtrmm(CBLAS_ORDER order, CBLAS_SIDE side, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans,
                 CBLAS_DIAG diag, int m, int n, double alpha, const double* a, int lda,
                 double* b, int ldb) {
  if (order == CblasColMajor) {
    ag::dtrmm(to_side(side), to_uplo(uplo), to_trans(trans), to_diag(diag), m, n, alpha, a,
              lda, b, ldb, context());
  } else {
    ag::dtrmm(flip(to_side(side)), flip(to_uplo(uplo)), to_trans(trans), to_diag(diag), n, m,
              alpha, a, lda, b, ldb, context());
  }
}

void cblas_dtrsm(CBLAS_ORDER order, CBLAS_SIDE side, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans,
                 CBLAS_DIAG diag, int m, int n, double alpha, const double* a, int lda,
                 double* b, int ldb) {
  if (order == CblasColMajor) {
    ag::dtrsm(to_side(side), to_uplo(uplo), to_trans(trans), to_diag(diag), m, n, alpha, a,
              lda, b, ldb, context());
  } else {
    ag::dtrsm(flip(to_side(side)), flip(to_uplo(uplo)), to_trans(trans), to_diag(diag), n, m,
              alpha, a, lda, b, ldb, context());
  }
}

void armgemm_dgemm_batch(CBLAS_ORDER order, const CBLAS_TRANSPOSE* trans_a,
                         const CBLAS_TRANSPOSE* trans_b, const int64_t* m, const int64_t* n,
                         const int64_t* k, const double* alpha, const double** a,
                         const int64_t* lda, const double** b, const int64_t* ldb,
                         const double* beta, double** c, const int64_t* ldc, int64_t count) {
  if (count <= 0) return;
  std::vector<ag::GemmBatchEntry> entries(static_cast<std::size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    ag::GemmBatchEntry& e = entries[static_cast<std::size_t>(i)];
    e.trans_a = to_trans(trans_a[i]);
    e.trans_b = to_trans(trans_b[i]);
    e.m = m[i];
    e.n = n[i];
    e.k = k[i];
    e.alpha = alpha[i];
    e.a = a[i];
    e.lda = lda[i];
    e.b = b[i];
    e.ldb = ldb[i];
    e.beta = beta[i];
    e.c = c[i];
    e.ldc = ldc[i];
  }
  ag::dgemm_batch(to_layout(order), entries.data(), count, context());
}

void armgemm_dgemm_strided_batch(CBLAS_ORDER order, CBLAS_TRANSPOSE trans_a,
                                 CBLAS_TRANSPOSE trans_b, int64_t m, int64_t n, int64_t k,
                                 double alpha, const double* a, int64_t lda, int64_t stride_a,
                                 const double* b, int64_t ldb, int64_t stride_b, double beta,
                                 double* c, int64_t ldc, int64_t stride_c, int64_t count) {
  ag::dgemm_strided_batch(to_layout(order), to_trans(trans_a), to_trans(trans_b), m, n, k,
                          alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc, stride_c,
                          count, context());
}

void armgemm_set_num_threads(int threads) {
  if (threads >= 1) g_threads.store(threads);
}

int armgemm_get_num_threads(void) { return g_threads.load(); }

int armgemm_config_set(const char* name, const char* value) {
  const std::optional<ag::Knob> knob = name ? ag::find_knob(name) : std::nullopt;
  if (!knob || !value) return -1;
  return ag::set_knob(*knob, std::string(value)) ? 0 : -1;
}

long long armgemm_config_get(const char* name, char* buf, size_t len) {
  const std::optional<ag::Knob> knob = name ? ag::find_knob(name) : std::nullopt;
  if (!knob) return -1;
  return copy_text(ag::knob_text(*knob), buf, len);
}

void armgemm_topology_refresh(void) { ag::Topology::refresh(); }

void armgemm_stats_enable(void) { g_stats_enabled.store(true, std::memory_order_relaxed); }

void armgemm_stats_disable(void) { g_stats_enabled.store(false, std::memory_order_relaxed); }

int armgemm_stats_enabled(void) {
  return g_stats_enabled.load(std::memory_order_relaxed) ? 1 : 0;
}

void armgemm_stats_reset(void) { global_stats().reset(); }

void armgemm_stats_get(armgemm_stats_snapshot* out) {
  if (!out) return;
  const ag::obs::LayerCounters t = global_stats().totals();
  out->gemm_calls = t.gemm_calls;
  out->pack_a_calls = t.pack_a_calls;
  out->pack_b_calls = t.pack_b_calls;
  out->gebp_calls = t.gebp_calls;
  out->kernel_calls = t.kernel_calls;
  out->pack_a_bytes = t.pack_a_bytes;
  out->pack_b_bytes = t.pack_b_bytes;
  out->c_bytes = t.c_bytes;
  out->pack_a_seconds = t.pack_a_seconds;
  out->pack_b_seconds = t.pack_b_seconds;
  out->gebp_seconds = t.gebp_seconds;
  out->barrier_seconds = t.barrier_seconds;
  out->total_seconds = t.total_seconds;
  out->flops = t.flops;
  out->gflops = t.gflops();
  out->gamma = t.gamma();

  const ag::obs::PmuCounts hw = global_pmu().layer_totals(ag::obs::PmuLayer::kTotal);
  out->pmu_cycles = hw[ag::obs::PmuEvent::kCycles];
  out->pmu_instructions = hw[ag::obs::PmuEvent::kInstructions];
  out->pmu_l1d_access = hw[ag::obs::PmuEvent::kL1dAccess];
  out->pmu_l1d_refill = hw[ag::obs::PmuEvent::kL1dRefill];
  out->pmu_l2_refill = hw[ag::obs::PmuEvent::kL2Refill];
  out->pmu_stall_cycles = hw[ag::obs::PmuEvent::kStallCycles];
  out->pmu_branch_misses = hw[ag::obs::PmuEvent::kBranchMisses];
  out->pmu_task_clock_ns = hw[ag::obs::PmuEvent::kTaskClockNs];
  out->pmu_hardware = global_pmu().any_hardware() ? 1 : 0;

  out->small_calls = t.small_calls;
  out->small_seconds = t.small_seconds;
}

int armgemm_stats_write_json(const char* path) {
  if (!path) return -1;
  std::ofstream os(path);
  if (!os) return -1;
  // Splice the PMU object into the stats report's top-level object.
  std::string js = global_stats().to_json();
  const std::size_t brace = js.rfind('}');
  if (brace != std::string::npos)
    js = js.substr(0, brace) + ",\"pmu\":" + global_pmu().to_json() + "}";
  os << js << "\n";
  return os ? 0 : -1;
}

void armgemm_pmu_enable(void) {
  g_pmu_enabled.store(true, std::memory_order_relaxed);
  global_stats().set_pmu(&global_pmu());
}

void armgemm_pmu_disable(void) {
  g_pmu_enabled.store(false, std::memory_order_relaxed);
  global_stats().set_pmu(nullptr);
}

int armgemm_pmu_enabled(void) {
  return g_pmu_enabled.load(std::memory_order_relaxed) ? 1 : 0;
}

int armgemm_pmu_available(void) {
  return ag::obs::PmuGroup::hardware_available() ? 1 : 0;
}

void armgemm_telemetry_enable(void) { ag::obs::telemetry_enable(); }

void armgemm_telemetry_disable(void) { ag::obs::telemetry_disable(); }

int armgemm_telemetry_enabled(void) { return ag::obs::telemetry_enabled() ? 1 : 0; }

void armgemm_telemetry_reset(void) { ag::obs::telemetry_reset(); }

void armgemm_telemetry_set_model(double peak_gflops_per_core, double mu, double pi,
                                 double kappa, double psi_c) {
  ag::model::CostParams cost;
  cost.mu = mu;
  cost.pi = pi;
  cost.kappa = kappa;
  ag::obs::telemetry_set_model(peak_gflops_per_core, cost, psi_c);
}

void armgemm_telemetry_latency(int shape_kind, armgemm_latency_summary* out) {
  if (!out) return;
  *out = armgemm_latency_summary{};
  const ag::obs::TelemetrySnapshot snap = ag::obs::telemetry_snapshot();
  ag::obs::LatencyHistogram lat;
  ag::obs::EfficiencyHistogram eff;
  for (const ag::obs::ClassSnapshot& c : snap.classes) {
    if (shape_kind >= 0 && static_cast<int>(c.shape.kind) != shape_kind) continue;
    lat += c.latency;
    eff += c.efficiency;
  }
  out->calls = lat.total;
  out->p50_seconds = ag::obs::latency_quantile(lat, 0.50);
  out->p95_seconds = ag::obs::latency_quantile(lat, 0.95);
  out->p99_seconds = ag::obs::latency_quantile(lat, 0.99);
  out->max_seconds = lat.max;
  out->mean_seconds = lat.mean();
  out->mean_efficiency = eff.mean();
}

unsigned long long armgemm_telemetry_anomaly_count(void) {
  return ag::obs::telemetry_anomaly_count();
}

int armgemm_telemetry_drift_ewma(int shape_kind, double* fast_ewma,
                                 double* reference_ewma) {
  const ag::obs::TelemetrySnapshot snap = ag::obs::telemetry_snapshot();
  const ag::obs::ClassSnapshot* pick = nullptr;
  double worst = -1;
  for (const ag::obs::ClassSnapshot& c : snap.classes) {
    if (shape_kind >= 0 && static_cast<int>(c.shape.kind) != shape_kind) continue;
    if (c.drift_samples == 0 || c.drift_reference <= 0) continue;
    const double div = std::abs(c.drift_fast / c.drift_reference - 1.0);
    if (div > worst) {
      worst = div;
      pick = &c;
    }
  }
  if (!pick) return 0;
  if (fast_ewma) *fast_ewma = pick->drift_fast;
  if (reference_ewma) *reference_ewma = pick->drift_reference;
  return 1;
}

long long armgemm_metrics_render(int format, char* buf, size_t len) {
  if (format == 0) return copy_text(ag::obs::telemetry_render_prometheus(), buf, len);
  if (format == 1) return copy_text(ag::obs::telemetry_render_json(), buf, len);
  return -1;
}

int armgemm_metrics_write(const char* path) {
  return ag::obs::telemetry_write_metrics(path ? path : "");
}

int armgemm_flight_dump(const char* path) {
  if (!path) return -1;
  return ag::obs::telemetry_dump_flight(path);
}

int armgemm_scheduler_stats_get(armgemm_scheduler_stats* out) {
  if (!out) return 0;
  *out = armgemm_scheduler_stats{};
  if (!ag::obs::scheduler_stats_available()) return 0;
  const ag::obs::SchedulerStats s = ag::obs::scheduler_stats();
  out->workers = s.workers;
  out->queued = static_cast<long long>(s.queued);
  out->submissions = s.submissions;
  out->tickets_enqueued = s.tickets_enqueued;
  out->tickets_inline = s.tickets_inline;
  for (const ag::obs::SchedulerWorkerStats& w : s.per_worker) {
    out->tickets_run += w.tickets_run;
    out->tickets_stolen += w.tickets_stolen;
    out->steals_local += w.steals_local;
    out->steals_remote += w.steals_remote;
    out->steal_attempts += w.steal_attempts;
    out->steal_failures += w.steal_failures;
    out->blocks += w.blocks;
    if (w.name != "callers") {
      out->busy_seconds += w.busy_seconds;
      out->idle_seconds += w.idle_seconds;
    }
  }
  out->utilization = s.utilization();
  out->steal_imbalance = s.steal_imbalance();
  return 1;
}

void armgemm_tune_force_retune(void) { ag::tune::force_retune(); }

int armgemm_tune_save(const char* path) {
  return ag::tune::save_cache(path ? path : "");
}

int armgemm_tune_resolve(int precision, long long m, long long n, long long k,
                         int threads, armgemm_tuned_config* out) {
  if (!out) return 0;
  *out = armgemm_tuned_config{};
  if (m <= 0 || n <= 0 || k <= 0 || threads < 1) return 0;
  ag::ensure_tune_probe_runner();
  const ag::tune::Precision prec =
      precision == 1 ? ag::tune::Precision::kF32 : ag::tune::Precision::kF64;
  const ag::tune::TunedConfig* cfg = ag::tune::resolve(prec, m, n, k, threads);
  if (!cfg) return 0;
  std::strncpy(out->kernel, cfg->kernel_name.c_str(), sizeof(out->kernel) - 1);
  out->mr = cfg->mr;
  out->nr = cfg->nr;
  out->kc = cfg->kc;
  out->mc = cfg->mc;
  out->nc = cfg->nc;
  out->mc_mt = cfg->mc_mt;
  out->nc_mt = cfg->nc_mt;
  out->prea = cfg->prea;
  out->preb = cfg->preb;
  out->source = static_cast<int>(cfg->source);
  out->gflops = cfg->gflops;
  return 1;
}

int armgemm_panel_cache_stats_get(armgemm_panel_cache_stats* out) {
  if (!out) return 0;
  *out = armgemm_panel_cache_stats{};
  if (!ag::obs::panel_cache_stats_available()) return 0;
  const ag::obs::PanelCacheStats s = ag::obs::panel_cache_stats();
  out->hits = s.hits;
  out->misses = s.misses;
  out->inserts = s.inserts;
  out->bypasses = s.bypasses;
  out->evictions = s.evictions;
  out->wait_stalls = s.wait_stalls;
  out->wait_seconds = s.wait_seconds;
  out->epochs = s.epochs;
  out->resident_bytes = s.resident_bytes;
  out->peak_bytes = s.peak_bytes;
  out->resident_panels = s.resident_panels;
  out->node_replicas = s.node_replicas;
  out->hit_rate = s.hit_rate();
  return 1;
}

int armgemm_forensics_capture(void) { return ag::obs::telemetry_forensics_capture(); }

long long armgemm_forensics_last_bundle(char* buf, size_t len) {
  return copy_text(ag::obs::forensics_last_bundle_json(), buf, len);
}

}  // extern "C"
