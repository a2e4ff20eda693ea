// Core's side of the autotuner (src/tune): per-call configuration
// resolution for a dgemm or batch-entry call.
#pragma once

#include "blas/gemm_types.hpp"
#include "core/block_sizes.hpp"
#include "core/context.hpp"
#include "kernels/microkernel.hpp"
#include "tune/tune.hpp"

namespace ag {

/// The kernel + blocking one dgemm/batch-entry call actually runs with,
/// and where that configuration came from.
struct ExecConfig {
  const Microkernel* kernel = nullptr;
  BlockSizes bs;
  /// Per-core-class mc (tune::per_class_mc) on asymmetric hosts; empty
  /// when every class runs bs.mc. A rank on class c sub-blocks its
  /// claimed mc blocks to mc_class[c] rows — a within-block split along
  /// m, so the block grid (and results, bitwise) are unchanged.
  std::vector<index_t> mc_class;
  tune::TuneSource source = tune::TuneSource::kNone;
};

/// Resolves the execution configuration for one blocked f64 call.
///
///   - tuner off (ARMGEMM_TUNE=off): the context's configuration,
///     untouched and unrecorded — bit-for-bit the pre-tuner behavior;
///   - context not tunable (explicitly configured): the context's
///     configuration, counted under the "pinned" source;
///   - tunable: tune::resolve gives the kernel + blocking of the
///     (precision, shape-class) key — the cache file's entry or the
///     anchor — falling back to the context's configuration if
///     resolution yields nothing usable.
ExecConfig resolve_exec_config(const Context& ctx, index_t m, index_t n, index_t k);

}  // namespace ag
