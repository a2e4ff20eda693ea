// Closed-loop autotuner (ROADMAP item 2): per (precision, shape-class)
// key, selects the kernel shape, the kc/mc/nc cache blocking and the
// PREA/PREB prefetch distances on the machine the library actually runs
// on. The small-path threshold (ARMGEMM_SMALL_MNK) is not tuned: the
// small path is bitwise equal to the blocked one, so its threshold only
// moves speed, and it is a fixed default from a committed sweep.
//
// The loop, per key, on the first tunable dgemm/sgemm/batch call that
// lands there:
//
//   1. propose — the Section III analytic model (model/cache_blocking on
//      the paper machine description, priced with the process's one
//      obs/calibrate host calibration, which telemetry shares) and the
//      host-heuristic defaults span a small candidate neighborhood
//      across the registered kernel shapes;
//   2. measure — short probes (capped representative problem sizes, the
//      real packing + GEBP nest, no instrumentation) rank the
//      candidates, budgeted process-wide by ARMGEMM_TUNE_BUDGET_MS; once
//      the budget is spent resolution stays analytic;
//   3. persist — winners are appended to a versioned JSON cache at
//      ARMGEMM_TUNE_CACHE (atomic .tmp+rename; host fingerprint = arch +
//      calibrated machine constants), so the next process starts warm:
//      fingerprint-matching entries resolve as "cached" with zero probes;
//   4. watch — telemetry's drift detector (obs/drift) notifies the tuner
//      on sustained measured-vs-model divergence and the affected class
//      is invalidated and re-tuned on its next call.
//
// Layering: tune sits between obs/model/kernels and core. It cannot call
// the GEMM drivers itself (core links tune, not vice versa); instead
// core installs a probe runner (a plain function pointer) the first time
// it resolves a tunable call, and tests may inject a deterministic fake.
//
// Thread-safety: resolution is an atomic pointer load on the hot path;
// the slow path (first call per key) serializes on one mutex, so
// concurrent first calls tune once and share the winner. Returned
// TunedConfig pointers live forever (leaky), so readers never race a
// re-tune; an invalidated key simply publishes a fresh pointer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/block_sizes.hpp"
#include "kernels/microkernel.hpp"
#include "obs/runtime_introspect.hpp"

namespace ag::tune {

enum class Precision : int { kF64 = 0, kF32 = 1 };
inline constexpr int kPrecisionCount = 2;
const char* to_string(Precision p);  // "f64" | "f32"

/// Where a resolved configuration came from. Mirrored as plain ints in
/// obs::TuneStats (obs cannot include this header).
enum class TuneSource : int {
  kNone = 0,      // tuner off / not consulted
  kAnalytic = 1,  // model + host-heuristic proposal, no probes ran
  kProbed = 2,    // measured probes ranked the neighborhood this process
  kCached = 3,    // loaded from the persistent per-host cache
  kPinned = 4,    // context explicitly configured; tuner bypassed
};
inline constexpr int kTuneSourceCount = 5;
const char* to_string(TuneSource s);

/// One key's winning configuration. `kc`/`mr`/`nr`/`kernel` are
/// invariant across thread counts (they fix the per-element accumulation
/// order, keeping results bitwise identical whatever the thread count);
/// mc/nc carry a multi-thread variant since shrinking them only re-tiles
/// C spatially.
struct TunedConfig {
  Precision precision = Precision::kF64;
  int kind = 0;    // obs::ShapeKind as int
  int decade = 0;  // floor(log10(m*n*k)), clamped like obs::ShapeClass
  std::string kernel_name;                  // "" for f32 (single kernel family)
  const Microkernel* kernel = nullptr;      // resolved registry pointer (f64)
  int mr = 8, nr = 6;
  index_t kc = 256;
  index_t mc = 64, nc = 4096;        // single-thread blocking
  index_t mc_mt = 64, nc_mt = 4096;  // blocking when the call runs parallel
  index_t prea = 0, preb = 0;        // probed prefetch distances (0 = not probed)
  TuneSource source = TuneSource::kNone;
  double gflops = 0;    // best probe measurement (0 when analytic)
  double probe_ms = 0;  // wall time the key's probes cost

  /// The blocking for a call running with `threads` ranks.
  BlockSizes block_sizes(int threads) const {
    BlockSizes bs;
    bs.mr = mr;
    bs.nr = nr;
    bs.kc = kc;
    bs.mc = threads > 1 ? mc_mt : mc;
    bs.nc = threads > 1 ? nc_mt : nc;
    return bs;
  }
};

/// One measured probe the tuner asks core to run: the uninstrumented
/// packing + GEBP nest with the given kernel and blocking. prea/preb >= 0
/// ask the runner to apply those prefetch distances for the duration of
/// the probe.
struct ProbeRequest {
  Precision precision = Precision::kF64;
  index_t m = 0, n = 0, k = 0;
  const Microkernel* kernel = nullptr;  // f64 blocked probes
  int mr = 8, nr = 6;
  index_t kc = 256, mc = 64, nc = 4096;
  index_t prea = -1, preb = -1;
};

/// Returns the probe's measured Gflops; 0 reports failure (the candidate
/// is skipped).
using ProbeFn = double (*)(const ProbeRequest&);

/// Test hook: replaces the probe runner unconditionally.
void set_probe_runner(ProbeFn fn);

/// Core's hook: installs the real runner only when none is present, so a
/// test-injected fake survives the first tunable call.
void install_default_probe_runner(ProbeFn fn);

/// Test hook: pins the machine model (peak Gflops/core, mu s/flop, pi
/// s/word) so resolution never reads obs/calibrate's host calibration.
/// peak <= 0 clears the pin and the next resolution reads the host
/// calibration (running it if no thread has: once per process, shared
/// with telemetry).
void set_machine_model(double peak_gflops, double mu, double pi);

/// Per-core-class mc blocking — the paper's Eq. 19 mc sizing generalized
/// to asymmetric (big.LITTLE) hosts: each class's mc is the key's `mc`
/// scaled by the class's relative throughput weight (read from
/// obs::topology_stats(), which threading/topology registers), rounded
/// down to an mr multiple and floored at mr, so a LITTLE cluster's
/// blocking fits its proportionally smaller L2 working set within the
/// same call. Returns class-indexed mcs, or an empty vector when the
/// topology is flat/unknown or no class shrinks (every rank runs `mc`
/// unchanged). Splitting a claimed mc block along m at mr granularity
/// never reorders a tile's kc accumulation, so this cannot change
/// results bitwise.
std::vector<index_t> per_class_mc(index_t mc, int mr);

/// Resolves the key covering (m, n, k): the hot path is one atomic load;
/// the first call per key loads the cache / proposes / probes / saves.
/// Returns nullptr only when the tuner is off (common/knobs tune_mode).
/// The pointer is immortal — safe to hold across calls and threads.
const TunedConfig* resolve(Precision precision, index_t m, index_t n, index_t k,
                           int threads);

/// Per-call source accounting (the telemetry tune-source gauge's
/// armgemm_tune_calls_total counter). One relaxed fetch_add.
void record_call(TuneSource source);

/// Drops every resolved key and the loaded cache contents; the next call
/// per key re-tunes from scratch (probe budget permitting). The
/// persistent file is untouched until the next save.
void force_retune();

/// Writes the resolved state to ARMGEMM_TUNE_CACHE (or `path` when
/// non-empty). Returns 0 on success, -1 when no path is configured or
/// the write fails. Saves also happen automatically after a tune session
/// that produced probed winners.
int save_cache(const std::string& path = "");

/// Snapshot for telemetry / the C API.
obs::TuneStats stats();

}  // namespace ag::tune
