// Single-precision GEMM through the same GotoBLAS layering as dgemm.
//
// SGEMM is not evaluated in the paper, but the framework is precision
// generic: the register blocking doubles its mr (16x6 on 256-bit hosts)
// and the cache blocks deepen (a float is half a double), while the
// packing layouts, GEBP structure and Figure 9 parallelization carry over
// unchanged — this module instantiates the shared templates for float.
#pragma once

#include <cstdint>

#include "blas/gemm_types.hpp"

namespace ag {

struct SgemmOptions {
  int threads = 1;
  /// Cache blocks; zero fields take default_sgemm_block_sizes().
  std::int64_t kc = 0, mc = 0, nc = 0;
  /// Opts the call into the autotuner: when set (and kc/mc/nc are all
  /// zero and ARMGEMM_TUNE is not off) the f32 shape-class key's blocking
  /// from the ARMGEMM_TUNE_CACHE file replaces the host defaults (without
  /// a file entry the key's anchor is the defaults). The C API sets it;
  /// explicitly blocked calls are pins.
  bool tunable = false;
};

/// Runs dgemm's driver in float. Parallel calls run on a fork/join pool
/// the calling thread keeps, with its packing scratch, across calls.
/// Validates its arguments as dgemm does (ag::InvalidArgument).
void sgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda, const float* b,
           std::int64_t ldb, float beta, float* c, std::int64_t ldc,
           const SgemmOptions& options = {});

/// Naive reference for validation.
void reference_sgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha, const float* a,
                     std::int64_t lda, const float* b, std::int64_t ldb, float beta, float* c,
                     std::int64_t ldc);

}  // namespace ag
