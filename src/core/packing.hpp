// Packing of A blocks and B panels into the contiguous sliver layouts the
// microkernels consume (Figure 3 of the paper).
//
// Packed A (an mc x kc block of op(A)):
//   ceil(mc/mr) slivers, each mr x kc, stored sliver-major; within a
//   sliver, mr contiguous elements per k-step ("column sub-slivers").
//   Rows beyond mc are zero-padded so edge tiles need no masking.
//
// Packed B (a kc x nc panel of op(B)):
//   ceil(nc/nr) slivers, each kc x nr, stored sliver-major; within a
//   sliver, nr contiguous elements per k-step ("row sub-slivers").
//   Columns beyond nc are zero-padded.
#pragma once

#include <cstdint>

#include "blas/gemm_types.hpp"
#include "kernels/microkernel.hpp"

namespace ag {

/// Name of the SIMD lowering the shipping packers use on this build:
/// "avx2", "neon", or "scalar".
const char* packing_isa();

/// Number of doubles a packed mc x kc A block occupies (mr-row padded).
index_t packed_a_size(index_t mc, index_t kc, int mr);

/// Number of doubles a packed kc x nc B panel occupies (nr-col padded).
index_t packed_b_size(index_t kc, index_t nc, int nr);

/// Packs the mc x kc block of op(A) whose top-left element is
/// op(A)(row0, col0). `a`/`lda` describe the stored (untransposed) matrix.
void pack_a(Trans trans, const double* a, index_t lda, index_t row0, index_t col0, index_t mc,
            index_t kc, int mr, double* dst);

/// Packs the kc x nc panel of op(B) whose top-left element is
/// op(B)(row0, col0). `b`/`ldb` describe the stored (untransposed) matrix.
void pack_b(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0, index_t kc,
            index_t nc, int nr, double* dst);

/// Packs only slivers [sliver_begin, sliver_end) of the B panel — the unit
/// of work when threads cooperatively pack the shared panel (Figure 9).
void pack_b_slivers(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0,
                    index_t kc, index_t nc, int nr, index_t sliver_begin, index_t sliver_end,
                    double* dst);

/// Scalar reference packers: the plain Figure-3 element loops the SIMD
/// fast paths are verified against (and the only path on builds without
/// a SIMD lowering). Bitwise-identical output to pack_a / pack_b.
void pack_a_reference(Trans trans, const double* a, index_t lda, index_t row0, index_t col0,
                      index_t mc, index_t kc, int mr, double* dst);
void pack_b_reference(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0,
                      index_t kc, index_t nc, int nr, double* dst);

}  // namespace ag
