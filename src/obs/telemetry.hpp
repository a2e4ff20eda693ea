// Always-on serving telemetry: the layer that watches the library while
// it serves real traffic, as opposed to the on-demand GemmStats /
// PMU / tracer machinery that instruments one measured run.
//
// Per recording thread (host callers and pool workers each get a lane):
//
//   * lock-free log-bucketed latency histograms and linear Gflops-
//     efficiency histograms, keyed by call-shape class (small fast-path /
//     skinny / square / large crossed with the m*n*k decade), mergeable
//     on snapshot into p50/p95/p99/max and efficiency distributions;
//   * a flight recorder — fixed-depth ring of recent CallRecords
//     (ARMGEMM_FLIGHT_DEPTH) — dumped as JSON on demand, on SIGUSR2, and
//     automatically when the drift detector fires;
//   * a per-worker barrier-wait histogram (the load-imbalance signal).
//
// Per shape class, a model-drift detector (obs/drift) runs an EWMA of
// measured-vs-expected efficiency, where "expected" prices the
// obs/expected blocking arithmetic with the obs/calibrate cost constants
// (Section III model). Sustained divergence beyond
// ARMGEMM_DRIFT_THRESHOLD records an anomaly (with the triggering call)
// and dumps the metrics + flight state to ARMGEMM_METRICS_PATH.
//
// Exposition: telemetry_render_prometheus() (text format 0.0.4) and
// telemetry_render_json() render a snapshot through the metrics table
// (obs/metrics); telemetry_write_metrics() writes both (path and
// path.json). The C API returns the same two renderings from
// armgemm_metrics_render and writes them with armgemm_metrics_write; its
// only other telemetry readers are the latency, drift and anomaly-count
// accessors.
//
// Cost contract: with telemetry disabled the dgemm hook is one relaxed
// atomic load. Enabled, a 64x64x64 call pays a median of +3.6-4.4% in
// bench/telemetry_overhead's gate (EXPERIMENTS.md), against a 1% target
// that the record path does not yet meet. Under -DARMGEMM_STATS=OFF
// telemetry_active() folds to a compile-time false and the whole layer is
// dead code.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/knobs.hpp"
#include "core/block_sizes.hpp"
#include "model/perf_model.hpp"
#include "obs/drift.hpp"
#include "obs/flight.hpp"
#include "obs/forensics.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/histogram.hpp"
#include "obs/phase.hpp"
#include "obs/runtime_introspect.hpp"

namespace ag::obs {

// ---- shape classification ------------------------------------------------

/// Coarse call-shape kinds. kSmall tracks the driver's small-path
/// dispatch (common/knobs use_small_gemm, a fixed threshold nothing
/// writes at run time): calls up to ARMGEMM_SMALL_MNK^3, which above 50^3
/// run on several ranks and record the ranks that ran a ticket as their
/// threads. kSkinny/kSquare/kLarge split the rest on aspect ratio and
/// problem volume, so kSquare holds only calls above the threshold.
/// kBatch is never produced by classify(): entries of a dgemm_batch call
/// land there explicitly (via telemetry_record_batch_entry) so serving
/// traffic through the persistent queue is distinguishable from loose
/// calls of the same shape.
enum class ShapeKind : int { kSmall = 0, kSkinny, kSquare, kLarge, kBatch, kCount };
inline constexpr int kShapeKindCount = static_cast<int>(ShapeKind::kCount);
const char* to_string(ShapeKind k);

inline constexpr int kShapeDecades = 13;  // floor(log10(m*n*k)) clamped to [0, 12]
inline constexpr int kShapeClasses = kShapeKindCount * kShapeDecades;

struct ShapeClass {
  ShapeKind kind = ShapeKind::kSquare;
  int decade = 0;

  int index() const { return static_cast<int>(kind) * kShapeDecades + decade; }
  static ShapeClass from_index(int index);
  /// Classifies one column-major call shape. Skinny: max dim >= 4x min
  /// dim. Large: square-ish with m*n*k >= 256^3. Small: the fast path.
  static ShapeClass classify(std::int64_t m, std::int64_t n, std::int64_t k);

  std::string label() const;  // e.g. "square/d6"
};

// ---- hot-path hooks ------------------------------------------------------

/// The dgemm hot-path test: one relaxed load of the ARMGEMM_TELEMETRY
/// row when stats are compiled in, a compile-time false under
/// -DARMGEMM_STATS=OFF.
inline bool telemetry_active() {
  if constexpr (!stats_compiled_in) return false;
  return ag::detail::g_knob_bits[static_cast<int>(Knob::kTelemetry)].load(
             std::memory_order_relaxed) != 0;
}

/// True when the drivers should take phase-boundary clock reads: telemetry
/// is recording AND the ARMGEMM_PHASES knob is on. Compile-time false
/// under -DARMGEMM_STATS=OFF like the rest of the layer.
inline bool telemetry_phases_active() {
  if constexpr (!stats_compiled_in) return false;
  return telemetry_active() && phase_attribution_enabled();
}

/// Records one completed call (driver thread). `bs` prices the expected-
/// efficiency model for the drift detector; results are memoized per
/// thread, so steady-state shape-repeating traffic pays a lookup only.
/// `end_time_seconds` is the steady-clock timestamp (seconds since the
/// clock's epoch) at which the call finished; callers that already read
/// the clock to compute `seconds` pass it to spare the record path a
/// third clock read. Negative means "read the clock here".
/// `phases`, when non-null, is the call's finished phase timeline: it is
/// folded into the class's phase-share histograms, attached to the
/// flight record, and carried into any forensics bundle this call
/// triggers (drift onset or slow-call threshold).
void telemetry_record_call(std::int64_t m, std::int64_t n, std::int64_t k, int threads,
                           ScheduleKind schedule, double seconds, const BlockSizes& bs,
                           double end_time_seconds = -1.0,
                           const CallPhases* phases = nullptr);

/// Records one completed entry of a dgemm_batch call into the `batch`
/// shape class (decade still from m*n*k): service latency + efficiency
/// into the class histograms, `queue_wait_seconds` (submission-to-start
/// delay in the persistent pool's queue) into the recording thread's
/// queue-wait histogram, and a kBatch flight record carrying the queue
/// wait plus the entry's panel-cache hit/miss totals. Batch entries skip
/// the drift detector — queue wait would alias as model drift.
void telemetry_record_batch_entry(std::int64_t m, std::int64_t n, std::int64_t k,
                                  int threads, double service_seconds,
                                  double queue_wait_seconds,
                                  std::uint64_t cache_hits = 0,
                                  std::uint64_t cache_misses = 0,
                                  const CallPhases* phases = nullptr);

/// Records one rank's barrier wait for the just-finished parallel call
/// into the calling thread's lane.
void telemetry_record_barrier_wait(double seconds);

/// Pre-creates (and names) the calling thread's telemetry lane; pool
/// workers call this at startup so the first recorded call never
/// allocates. Idempotent; renames the lane on repeat calls.
void telemetry_register_thread(const std::string& name);

// ---- lifecycle -----------------------------------------------------------

/// Turns recording on. Unless telemetry_set_model() injected one, the
/// first enable (or the first enable after a model reset) derives the
/// expected-efficiency model from the process's one host calibration
/// (obs/calibrate host_calibration), which it runs if no thread has
/// started it: tens of milliseconds, once per process, shared with the
/// tuner. If another thread is running the probes, enable returns at once
/// and recorded calls carry no model-derived fields until they finish.
/// Also installs the SIGUSR2 dump handler (POSIX hosts).
void telemetry_enable();
void telemetry_disable();
bool telemetry_enabled();

/// Zeroes every histogram, flight ring, drift state and anomaly record,
/// and restarts the epoch. Lanes persist. Flight rings are re-sized to
/// the current ARMGEMM_FLIGHT_DEPTH.
void telemetry_reset();

/// Injects the performance model used for expected efficiency (tests and
/// benchmarks use this to stay deterministic and skip calibration). An
/// injected model wins over the host calibration whether that ran before
/// or after it. peak_gflops_per_core <= 0 clears the model: the next
/// enable or recorded call re-derives it from the host calibration,
/// cached if it already ran (the probes never run twice in a process).
void telemetry_set_model(double peak_gflops_per_core, const model::CostParams& cost,
                         double psi_c);

/// Copies the active expected-efficiency model parameters (obs/forensics
/// prices the expected phase split with them). Returns false while no
/// model is ready; null out-params are skipped.
bool telemetry_model_params(double* peak_gflops_per_core, model::CostParams* cost,
                            double* psi_c);

// ---- snapshot + exposition -----------------------------------------------

struct AnomalyEvent {
  double t = 0;               // seconds since epoch
  int shape_class = 0;
  bool recovered = false;     // false: drift onset; true: recovery edge
  double fast_ewma = 0;
  double reference_ewma = 0;
  double threshold = 0;
  CallRecord trigger;         // the call whose sample crossed the edge
};

/// Merged per-(class, phase) attribution: where calls of this class spend
/// their wall time, as shares of each call's wall (obs/phase).
struct PhaseStat {
  std::uint64_t samples = 0;  // calls that carried a timeline
  double seconds = 0;         // attributed wall seconds, summed over calls
  double mean_share = 0;      // mean share of call wall time
  double p50 = 0, p95 = 0, p99 = 0;  // share quantiles over calls
};

struct ClassSnapshot {
  ShapeClass shape;
  std::uint64_t calls = 0;
  LatencyHistogram latency;       // seconds
  EfficiencyHistogram efficiency; // fraction of threads * peak
  double p50 = 0, p95 = 0, p99 = 0;  // seconds
  double drift_fast = 0, drift_reference = 0;
  std::uint64_t drift_samples = 0;
  bool in_drift = false;
  std::uint64_t anomalies = 0;
  std::uint64_t phase_samples = 0;   // calls with a phase timeline
  std::array<PhaseStat, kPhaseCount> phases{};
};

struct WorkerSnapshot {
  std::string name;
  LatencyHistogram barrier_wait;  // seconds per parallel call
  LatencyHistogram queue_wait;    // seconds per batch ticket (submit -> start)
};

struct TelemetrySnapshot {
  bool enabled = false;
  double uptime_seconds = 0;       // since epoch
  double peak_gflops_per_core = 0; // 0 until the model is ready
  std::uint64_t total_calls = 0;
  std::uint64_t anomaly_count = 0; // drift onsets since epoch
  std::uint64_t flight_recorded = 0;
  std::vector<ClassSnapshot> classes;     // only classes that saw calls
  std::vector<AnomalyEvent> anomalies;    // bounded, oldest dropped
  std::vector<CallRecord> flight;         // merged over lanes, time-ordered
  std::vector<WorkerSnapshot> workers;    // lanes with barrier-wait data

  // Serving-runtime introspection (obs/runtime_introspect). The
  // *_available flags are false until the pool / cache singleton has come
  // up and registered its source; renderers skip the sections then.
  bool scheduler_available = false;
  SchedulerStats scheduler;
  bool panel_cache_available = false;
  PanelCacheStats panel_cache;
  bool tune_available = false;
  TuneStats tune;
  bool topology_available = false;
  TopologyStats topology;

  ForensicsStats forensics;  // obs/forensics counters and last capture
};

/// Merged state across every lane. Safe concurrently with recording.
TelemetrySnapshot telemetry_snapshot();

/// Prometheus text exposition (format 0.0.4) of the merged state.
std::string telemetry_render_prometheus();
/// The same state as one JSON document ({"schema":"armgemm-telemetry/1"}).
std::string telemetry_render_json();

/// Writes the Prometheus text to `path` and the JSON document to
/// `path` + ".json". Empty path uses the ARMGEMM_METRICS_PATH knob.
/// Returns 0 on success, -1 when no path is configured or I/O fails.
int telemetry_write_metrics(const std::string& path = "");

/// Writes just the merged flight-recorder array to `path` as JSON.
int telemetry_dump_flight(const std::string& path);

/// Drift onsets recorded since the epoch.
std::uint64_t telemetry_anomaly_count();

}  // namespace ag::obs
