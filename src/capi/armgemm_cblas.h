/* CBLAS-compatible C API for the armgemm library.
 *
 * Drop-in signatures for the routines this library implements: link
 * against armgemm and include this header instead of (or alongside) a
 * system cblas.h. Enum values match the netlib CBLAS ABI, so callers
 * compiled against standard CBLAS headers interoperate.
 */
#ifndef ARMGEMM_CBLAS_H_
#define ARMGEMM_CBLAS_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef enum CBLAS_ORDER { CblasRowMajor = 101, CblasColMajor = 102 } CBLAS_ORDER;
typedef enum CBLAS_TRANSPOSE {
  CblasNoTrans = 111,
  CblasTrans = 112,
  CblasConjTrans = 113
} CBLAS_TRANSPOSE;
typedef enum CBLAS_UPLO { CblasUpper = 121, CblasLower = 122 } CBLAS_UPLO;
typedef enum CBLAS_DIAG { CblasNonUnit = 131, CblasUnit = 132 } CBLAS_DIAG;
typedef enum CBLAS_SIDE { CblasLeft = 141, CblasRight = 142 } CBLAS_SIDE;

void cblas_dgemm(CBLAS_ORDER order, CBLAS_TRANSPOSE trans_a, CBLAS_TRANSPOSE trans_b, int m,
                 int n, int k, double alpha, const double* a, int lda, const double* b,
                 int ldb, double beta, double* c, int ldc);

void cblas_sgemm(CBLAS_ORDER order, CBLAS_TRANSPOSE trans_a, CBLAS_TRANSPOSE trans_b, int m,
                 int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
                 float beta, float* c, int ldc);

void cblas_dsyrk(CBLAS_ORDER order, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans, int n, int k,
                 double alpha, const double* a, int lda, double beta, double* c, int ldc);

void cblas_dsymm(CBLAS_ORDER order, CBLAS_SIDE side, CBLAS_UPLO uplo, int m, int n,
                 double alpha, const double* a, int lda, const double* b, int ldb, double beta,
                 double* c, int ldc);

void cblas_dtrmm(CBLAS_ORDER order, CBLAS_SIDE side, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans,
                 CBLAS_DIAG diag, int m, int n, double alpha, const double* a, int lda,
                 double* b, int ldb);

void cblas_dtrsm(CBLAS_ORDER order, CBLAS_SIDE side, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans,
                 CBLAS_DIAG diag, int m, int n, double alpha, const double* a, int lda,
                 double* b, int ldb);

/* ---- Batched GEMM (persistent serving runtime) ----
 *
 * Runs `count` independent double-precision GEMMs as one submission to a
 * process-wide persistent task pool: no per-entry fork/join, work
 * stealing across entries, and same-B entries share one packed panel per
 * batch call (see ARMGEMM_PANEL_CACHE_MB). Entries must not alias each
 * other's C; sharing A or B operands across entries is encouraged. The
 * arrays hold one element per entry. Small entries (ARMGEMM_SMALL_MNK)
 * run the unpacked small path, which packs no B. Results are
 * bitwise-identical at every thread count. */
void armgemm_dgemm_batch(CBLAS_ORDER order, const CBLAS_TRANSPOSE* trans_a,
                         const CBLAS_TRANSPOSE* trans_b, const int64_t* m, const int64_t* n,
                         const int64_t* k, const double* alpha, const double** a,
                         const int64_t* lda, const double** b, const int64_t* ldb,
                         const double* beta, double** c, const int64_t* ldc, int64_t count);

/* Uniform batch: entry i uses a + i*stride_a, b + i*stride_b,
 * c + i*stride_c with a shared shape and scalars. stride_a or stride_b of
 * 0 shares that operand across every entry; stride_c must be at least one
 * full C footprint (ldc * stored columns) so C panels cannot overlap. */
void armgemm_dgemm_strided_batch(CBLAS_ORDER order, CBLAS_TRANSPOSE trans_a,
                                 CBLAS_TRANSPOSE trans_b, int64_t m, int64_t n, int64_t k,
                                 double alpha, const double* a, int64_t lda, int64_t stride_a,
                                 const double* b, int64_t ldb, int64_t stride_b, double beta,
                                 double* c, int64_t ldc, int64_t stride_c, int64_t count);

/* Thread count used by subsequent cblas_* calls in this process
 * (default 1). Analogous to openblas_set_num_threads. Takes effect for
 * each calling thread at its next cblas_* call; in-flight calls finish
 * with the thread count they started with. */
void armgemm_set_num_threads(int threads);
int armgemm_get_num_threads(void);

/* ---- Runtime knobs (process-wide) ----
 *
 * Every ARMGEMM_* environment variable in README "Runtime knobs" is also
 * settable and readable at run time, keyed by its name.
 *
 * armgemm_config_set parses `value` as the environment is parsed: a
 * base-10 integer, a finite decimal, or for the on/off knobs 1/0, on/off,
 * true/false or yes/no in any case (ARMGEMM_TUNE also takes "analytic");
 * the path and spec knobs take the text itself, "" meaning unset. Numbers
 * outside a knob's range are clamped into it. Returns 0, or -1 and
 * changes nothing for a NULL or unknown name, a NULL value, or text that
 * is not a value of the knob's type.
 *
 * armgemm_config_get writes the current value as armgemm_config_set
 * accepts it, following the snprintf contract: returns the full length
 * and writes at most len-1 bytes plus a NUL (call with len 0 to size).
 * Returns -1 for a NULL or unknown name.
 *
 * ARMGEMM_CPU_CLASSES and ARMGEMM_NUMA_NODES take effect at
 * armgemm_topology_refresh(); ARMGEMM_FLIGHT_DEPTH applies to flight
 * rings created or reset afterwards. */
int armgemm_config_set(const char* name, const char* value);
long long armgemm_config_get(const char* name, char* buf, size_t len);

/* Rebuilds the topology snapshot (re-reads sysfs and the
 * ARMGEMM_CPU_CLASSES / ARMGEMM_NUMA_NODES overrides). Cheap; safe
 * concurrently with running calls. */
void armgemm_topology_refresh(void);

/* ---- Per-layer instrumentation (process-wide, off by default) ----
 *
 * When enabled, every cblas_dgemm call records per-layer counters into
 * one shared collector: packing time/bytes, GEBP time and kernel
 * invocations, C traffic, barrier wait. Aggregation is race-free across
 * both pool threads and host threads. In a library built with
 * -DARMGEMM_STATS=OFF these calls succeed but every counter stays zero.
 */

typedef struct armgemm_stats_snapshot {
  unsigned long long gemm_calls;
  unsigned long long pack_a_calls, pack_b_calls;
  unsigned long long gebp_calls, kernel_calls;
  unsigned long long pack_a_bytes, pack_b_bytes, c_bytes;
  double pack_a_seconds, pack_b_seconds, gebp_seconds;
  double barrier_seconds, total_seconds;
  double flops;
  double gflops; /* flops / total_seconds * 1e-9 */
  double gamma;  /* flops per 8-byte word moved (Eq. 2 of the paper) */

  /* Hardware-counter totals for the whole-call layer, summed over pool
   * ranks. All zero unless armgemm_pmu_enable() was on during the calls.
   * When the host has no usable PMU the cycles fall back to a synthetic
   * nanosecond count and pmu_hardware reports 0; see pmu_hardware. */
  unsigned long long pmu_cycles, pmu_instructions;
  unsigned long long pmu_l1d_access, pmu_l1d_refill, pmu_l2_refill;
  unsigned long long pmu_stall_cycles, pmu_branch_misses;
  unsigned long long pmu_task_clock_ns;
  int pmu_hardware; /* 1 when at least one real hardware counter opened */

  /* Small-matrix fast path (appended in runtime-overhaul revision; keep
   * at the end for layout compatibility with older snapshots). */
  unsigned long long small_calls;
  double small_seconds;
} armgemm_stats_snapshot;

/* Attaches (or detaches) the process-wide hardware performance-counter
 * collector to the stats layer. Requires armgemm_stats_enable() as well:
 * PMU regions piggyback on the stats instrumentation. Safe on hosts
 * without perf counters -- collection degrades to timestamp-derived
 * synthetic cycles (see armgemm_pmu_available). */
void armgemm_pmu_enable(void);
void armgemm_pmu_disable(void);
int armgemm_pmu_enabled(void);

/* 1 when this process can open at least one real hardware PMU counter
 * right now (perf_event_paranoid, container seccomp and ARMGEMM_PMU=off
 * all make this 0). Collection still works when 0, with synthetic
 * provenance. */
int armgemm_pmu_available(void);

/* Turns collection on/off for subsequent cblas_* calls. Enabling does
 * not reset previously accumulated counters. */
void armgemm_stats_enable(void);
void armgemm_stats_disable(void);
int armgemm_stats_enabled(void);

/* Zeroes all accumulated counters. */
void armgemm_stats_reset(void);

/* Snapshot of the totals aggregated across every thread. */
void armgemm_stats_get(armgemm_stats_snapshot* out);

/* Writes the full JSON report ({"totals": ..., "threads": [...],
 * "pmu": {...}}) to `path`. The "pmu" object carries per-event
 * provenance (hw/sw/syn) and per-layer counter totals. Returns 0 on
 * success, -1 on I/O failure. */
int armgemm_stats_write_json(const char* path);

/* ---- Serving telemetry (process-wide, off by default) ----
 *
 * Always-on-capable observability for serving traffic: per-thread
 * lock-free latency/efficiency histograms keyed by call-shape class, a
 * per-thread flight recorder of recent calls, Prometheus/JSON metrics
 * exposition, and a model-drift anomaly detector comparing measured
 * efficiency against the paper's Section III expectation. The first
 * enable calibrates the expected-efficiency model (tens of ms, once per
 * process, shared with the autotuner) unless armgemm_telemetry_set_model()
 * injected one. SIGUSR2 requests a metrics dump to the
 * ARMGEMM_METRICS_PATH file at the next recorded call. In a
 * library built with -DARMGEMM_STATS=OFF these calls succeed but record
 * nothing. */

void armgemm_telemetry_enable(void);
void armgemm_telemetry_disable(void);
int armgemm_telemetry_enabled(void);

/* Zeroes every histogram, flight ring, drift state and anomaly record;
 * flight rings take the current ARMGEMM_FLIGHT_DEPTH. */
void armgemm_telemetry_reset(void);

/* Injects the expected-efficiency model instead of calibrating:
 * peak Gflops of one core, mu (s/flop), pi (s/word), kappa, and the c of
 * psi(gamma) = 1/(1 + c*gamma). peak <= 0 clears the model (the next
 * enable re-derives it from the process's one calibration). */
void armgemm_telemetry_set_model(double peak_gflops_per_core, double mu, double pi,
                                 double kappa, double psi_c);

typedef struct armgemm_latency_summary {
  unsigned long long calls;
  double p50_seconds, p95_seconds, p99_seconds, max_seconds;
  double mean_seconds;
  double mean_efficiency; /* Gflops fraction of threads x peak; 0 unknown */
} armgemm_latency_summary;

/* Latency/efficiency summary merged over every thread. shape_kind: 0
 * small fast-path, 1 skinny, 2 square, 3 large, 4 batch entries, -1 all
 * shapes. */
void armgemm_telemetry_latency(int shape_kind, armgemm_latency_summary* out);

/* Drift onsets (sustained measured-vs-expected divergence) since the last
 * reset. */
unsigned long long armgemm_telemetry_anomaly_count(void);

/* Fast and reference EWMA of the measured/expected efficiency ratio for
 * the most-divergent shape class of `shape_kind` (-1: any kind). Returns
 * 1 and fills the out-params when some class has samples, else 0. */
int armgemm_telemetry_drift_ewma(int shape_kind, double* fast_ewma, double* reference_ewma);

/* Renders the merged telemetry state into `buf`: format 0 = Prometheus
 * text exposition (0.0.4), 1 = one JSON document (schema
 * "armgemm-telemetry/1"). Every exported quantity is here: per-class
 * phase attribution under "classes[].phases", per-lane queue wait under
 * "workers[].queue_wait", and the "scheduler", "panel_cache", "tune",
 * "topology" and "forensics" objects. Snprintf contract:
 * returns the full length (excluding the terminator) and writes at most
 * len-1 bytes plus a NUL; call with len 0 to size. Negative on error. */
long long armgemm_metrics_render(int format, char* buf, size_t len);

/* Writes the Prometheus text to `path` and the JSON document to
 * "<path>.json". NULL or "" uses the ARMGEMM_METRICS_PATH knob. Returns 0
 * on success, -1 when no path is configured or I/O fails. */
int armgemm_metrics_write(const char* path);

/* Writes just the merged flight-recorder array (recent calls, oldest
 * first) to `path` as JSON. Returns 0 on success, -1 on failure. */
int armgemm_flight_dump(const char* path);

/* ---- Serving-runtime introspection (scheduler + panel cache) ----
 *
 * Merged snapshots of the persistent batch pool's scheduler counters and
 * the packed-B panel cache. Both getters return 1 and fill `out` once the
 * respective runtime singleton has come up (i.e. after the first batch
 * call), else 0 with `out` zeroed. In a -DARMGEMM_STATS=OFF build the
 * scheduler counters read zero; the cache counters remain live (cold
 * path). */

typedef struct armgemm_scheduler_stats {
  int workers;                        /* pool worker threads right now */
  long long queued;                   /* tickets waiting in the queue */
  unsigned long long submissions;     /* batch submissions executed */
  unsigned long long tickets_enqueued;
  unsigned long long tickets_inline;  /* admission overflow, ran on callers */
  unsigned long long tickets_run;     /* total over workers + callers */
  unsigned long long tickets_stolen;  /* popped from a foreign shard */
  unsigned long long steals_local;    /* ...homed on the thief's NUMA node */
  unsigned long long steals_remote;   /* ...homed on another node */
  unsigned long long steal_attempts;
  unsigned long long steal_failures;
  unsigned long long blocks;          /* spin-window expiries -> OS block */
  double busy_seconds;                /* summed over worker lanes */
  double idle_seconds;
  double utilization;                 /* busy / (busy + idle) over workers */
  double steal_imbalance;             /* max/mean tickets run per worker */
} armgemm_scheduler_stats;

int armgemm_scheduler_stats_get(armgemm_scheduler_stats* out);

typedef struct armgemm_panel_cache_stats {
  unsigned long long hits;
  unsigned long long misses;
  unsigned long long inserts;
  unsigned long long bypasses;        /* caching off / would not fit */
  unsigned long long evictions;
  unsigned long long wait_stalls;     /* hits that waited on a mid-pack panel */
  double wait_seconds;
  unsigned long long epochs;          /* sharing epochs begun (batch calls) */
  unsigned long long resident_bytes;
  unsigned long long peak_bytes;
  unsigned long long resident_panels;
  unsigned long long node_replicas;   /* per-NUMA-node duplicate inserts */
  double hit_rate;                    /* hits / (hits + misses) */
} armgemm_panel_cache_stats;

int armgemm_panel_cache_stats_get(armgemm_panel_cache_stats* out);

/* ---- Closed-loop autotuner ----
 *
 * Per (precision, shape-class) key, the tuner picks the register kernel,
 * the kc/mc/nc cache blocking, the prefetch distances and the small-path
 * crossover: an analytic proposal from the paper's Section III model,
 * refined by short measured probes (budgeted by ARMGEMM_TUNE_BUDGET_MS),
 * persisted per host to a versioned JSON cache at ARMGEMM_TUNE_CACHE and
 * invalidated when telemetry's drift detector fires. cblas_* calls use
 * tuned configurations automatically; contexts configured through the
 * explicit C++ API are pins the tuner never overrides. */

/* Drops every resolved key and the in-memory cache image; each key
 * re-tunes on its next call (probe budget permitting). The cache file is
 * untouched until the next save. */
void armgemm_tune_force_retune(void);

/* Writes the resolved tuning state to `path` (NULL or "" uses the
 * ARMGEMM_TUNE_CACHE knob). Atomic .tmp+rename. Returns 0 on success, -1
 * when no path is configured or the write fails. */
int armgemm_tune_save(const char* path);

/* The configuration the tuner would use for one (m, n, k) call right now
 * (resolving — and possibly probing — the key if this is its first
 * visit). precision: 0 double, 1 float. Returns 1 and fills `out`, or 0
 * when the tuner is off. */
typedef struct armgemm_tuned_config {
  char kernel[32]; /* registry name; "" for f32 */
  int mr, nr;
  long long kc, mc, nc;       /* single-thread blocking */
  long long mc_mt, nc_mt;     /* blocking when the call runs parallel */
  long long prea, preb;       /* probed prefetch distances; 0 not probed */
  int source;                 /* 1 analytic, 2 probed, 3 cached */
  double gflops;              /* best probe measurement; 0 when analytic */
} armgemm_tuned_config;

int armgemm_tune_resolve(int precision, long long m, long long n, long long k,
                         int threads, armgemm_tuned_config* out);

/* ---- Phase attribution + black-box forensics ----
 *
 * While telemetry records, each call can additionally carry a per-phase
 * timeline — monotonic-clock deltas at boundaries the drivers already
 * cross — aggregated into per-shape-class phase-share distributions,
 * which armgemm_metrics_render reports per class.
 *
 * When the drift detector fires, a call exceeds the slow-call threshold,
 * or armgemm_forensics_capture() is called, a JSON bundle (schema
 * "armgemm-forensics/1") with the call's timeline, the flight window and
 * the runtime snapshots is captured — written atomically into the
 * forensics directory when one is configured, and always retained
 * in memory (armgemm_forensics_last_bundle). Automatic captures are
 * rate-limited to one per forensics-interval seconds. Under
 * -DARMGEMM_STATS=OFF every capture entry point returns -1 and no bundle
 * is ever produced. */

/* Captures a bundle right now (reason "manual"), using the most recent
 * flight record as the subject call. Returns 0 on capture, -1 in a
 * -DARMGEMM_STATS=OFF build. */
int armgemm_forensics_capture(void);

/* The last captured bundle's full JSON text (empty before the first
 * capture). Snprintf contract. */
long long armgemm_forensics_last_bundle(char* buf, size_t len);

#ifdef __cplusplus
}
#endif

#endif /* ARMGEMM_CBLAS_H_ */
