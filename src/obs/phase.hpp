// Per-call phase attribution: where a GEMM call's wall time actually
// went.
//
// The drift detector (obs/telemetry) can flag *that* a shape class is
// slower than the Section III model predicts; this layer records *why* a
// specific call was slow, from the intervals of the layer-boundary
// regions the drivers already open (obs/region.hpp maps each boundary
// to its phase):
//
//   queue_wait  — batch tickets: submit-to-first-execution delay in the
//                 persistent pool (single calls: always 0).
//   pack_a      — packing mc x kc blocks of A (per rank).
//   pack_b      — packing kc x nc panels / sliver ranges of B.
//   kernel      — inside GEBP (register-kernel compute + C update).
//   barrier     — ranks waiting at the panel barriers of the pipelined
//                 parallel driver.
//   cache_stall — batch tickets waiting on a packed-B panel another
//                 ticket is mid-packing (core/panel_cache wait path).
//   epilogue    — the beta-scale path when no multiply runs (k == 0 or
//                 alpha == 0) and batch kScale entries.
//
// A call accumulates into a stack-owned CallPhases (per-rank partial sums
// are combined by the driver after the join, so recording is lock-free
// and allocation-free); obs/telemetry folds the finished timeline into
// lock-free per-shape-class phase-share histograms (p50/p95/p99 per
// phase) and stores it on the flight-recorder record for forensics.
// Everything here compiles out with the rest of the stats layer under
// -DARMGEMM_STATS=OFF; at runtime the ARMGEMM_PHASES knob gates the
// timeline (only consulted while telemetry is recording anyway).
#pragma once

#include <array>

#include "obs/histogram.hpp"

namespace ag::obs {

enum class Phase : int {
  kQueueWait = 0,
  kPackA,
  kPackB,
  kKernel,
  kBarrier,
  kCacheStall,
  kEpilogue,
};

inline constexpr int kPhaseCount = 7;

/// Stable lowercase identifier ("queue_wait", "pack_a", ...) used as the
/// Prometheus label value and the JSON key. Out-of-range -> "unknown".
const char* phase_name(int phase);
inline const char* phase_name(Phase p) { return phase_name(static_cast<int>(p)); }

/// One call's phase timeline. `seconds` sums over every rank that worked
/// on the call; `workers` is how many ranks accumulated, so
/// attributed(p) = seconds[p] / workers is the wall-clock attribution
/// (with workers ranks running concurrently, sum_p attributed(p) <= wall
/// up to measurement noise — the invariant forensics_check.py verifies).
struct CallPhases {
  std::array<double, kPhaseCount> seconds{};
  int workers = 1;

  void add(Phase p, double s) {
    if (s > 0) seconds[static_cast<int>(p)] += s;
  }
  /// Accumulator address for a timer that adds seconds to phase p (the
  /// panel cache's stall wait).
  double* slot(Phase p) { return &seconds[static_cast<int>(p)]; }
  void merge(const CallPhases& o) {
    for (int p = 0; p < kPhaseCount; ++p) seconds[p] += o.seconds[p];
  }
  double total() const {
    double t = 0;
    for (double s : seconds) t += s;
    return t;
  }
  double attributed(int p) const {
    return workers > 0 ? seconds[static_cast<std::size_t>(p)] / workers : 0.0;
  }
  double attributed_total() const {
    return workers > 0 ? total() / workers : 0.0;
  }
};

// ---- aggregation: per-class phase-share histograms -----------------------
//
// A finished call records, per phase, its share of the call's wall time
// (attributed(p) / wall, in [0, 1]) into a linear histogram with the
// efficiency-bucket geometry (0.02-wide buckets), one AtomicHistogram per
// (shape class, phase) pair on the recording lane. Shares rather than
// absolute seconds make classes of different magnitude comparable and
// p50/p95/p99 meaningful ("pack_b is 40% of p95 calls' time").

using PhaseShareHistogram = Histogram<kEfficiencyBuckets>;

/// q-quantile (q in [0,1]) of a phase-share histogram: midpoint of the
/// first bucket whose cumulative count reaches ceil(q*total), clamped to
/// the recorded maximum. 0 when empty.
double share_quantile(const PhaseShareHistogram& h, double q);

/// Scaled integer a share is recorded as (micro-shares), mirroring the
/// efficiency histograms' fixed-point convention.
inline constexpr double kShareScale = 1e6;

}  // namespace ag::obs
