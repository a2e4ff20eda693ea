// Autotuner resolution: per (precision, shape-class) key, the kernel
// shape and the kc/mc/nc cache blocking a tunable call runs with. The
// small-path threshold (ARMGEMM_SMALL_MNK) is not tuned: the small path
// is bitwise equal to the blocked one, so its threshold only moves speed,
// and it is a fixed default from a committed sweep.
//
// Tuning is offline; resolution is read-only. On the first tunable call
// that lands on a key, resolve() takes:
//
//   1. cached — the key's entry in the per-host cache file at
//      ARMGEMM_TUNE_CACHE, when the file's fingerprint (arch + logical
//      core count) matches this host. `bench/abl_autotune --native`
//      writes that file: it times candidates through the public
//      dgemm/sgemm on pinned contexts and keeps the anchor unless a
//      candidate beats it beyond the anchor's own spread;
//   2. analytic — otherwise the anchor(): the host-default kernel and
//      blocking (default_block_sizes, the Section III residency rules
//      at typical L1/L2 sizes), exactly what a default pinned context
//      runs.
//
// Nothing here times a kernel, calibrates the host or writes a knob, so
// one host and one cache file give every process the same configuration
// for a key, and a tunable call without a file is bitwise equal to a
// pinned default context.
//
// Thread-safety: resolution is an atomic pointer load on the hot path;
// the first call per key serializes on one mutex (which also reads the
// cache file, once per process), so concurrent first calls share one
// immortal TunedConfig.
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
  kAnalytic = 1,  // the anchor: no cache entry for the key
  kCached = 2,    // loaded from the per-host cache file
  kPinned = 3,    // context explicitly configured; tuner bypassed
};
inline constexpr int kTuneSourceCount = 4;
const char* to_string(TuneSource s);

/// One key's configuration. `kc`/`mr`/`nr`/`kernel` are invariant
/// across thread counts (they fix the per-element accumulation order,
/// keeping results bitwise identical whatever the thread count); mc/nc
/// carry a multi-thread variant since shrinking them only re-tiles C
/// spatially.
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
  TuneSource source = TuneSource::kNone;
  double gflops = 0;  // the offline search's measurement (0 when analytic)

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

  /// Sets mr/nr/kc/mc/nc from a single-thread blocking and derives the
  /// multi-thread variant: the same kc (the accumulation order stays
  /// thread-count invariant), mc and nc halved and re-rounded to the
  /// register grid, as default_block_sizes scales them.
  void set_blocking(const BlockSizes& bs);
};

/// The analytic anchor for a precision: f64 runs the best registered
/// 8x6 kernel with default_block_sizes(8x6, 1), f32 the sgemm kernel
/// with default_sgemm_block_sizes. This is what a default pinned
/// context (or untuned sgemm) runs, so an anchor-resolved call is
/// bitwise equal to one. (Untuned sgemm keeps its mc and nc at any
/// thread count, where the anchor halves them as for f64; that re-tiles
/// C but never changes a bit.) Its kind/decade are left 0 and its source
/// is kAnalytic.
TunedConfig anchor(Precision precision);

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
/// the first call per key reads the cache file (once per process) or
/// takes the anchor. Returns nullptr only when the tuner is off
/// (common/knobs tune_mode). The pointer is immortal — safe to hold
/// across calls and threads.
const TunedConfig* resolve(Precision precision, index_t m, index_t n, index_t k,
                           int threads);

/// Per-call source accounting (the telemetry tune-source gauge's
/// armgemm_tune_calls_total counter). One relaxed fetch_add.
void record_call(TuneSource source);

/// Test hook: forgets every resolved key and the cache file's contents,
/// so the next resolution reads ARMGEMM_TUNE_CACHE afresh. Configs
/// already handed out stay valid (immortal); nothing calls this at run
/// time.
void reset_for_testing();

/// Snapshot for telemetry / the C API.
obs::TuneStats stats();

}  // namespace ag::tune
