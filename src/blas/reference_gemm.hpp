// Reference (netlib-semantics) DGEMM implementations.
//
// `reference_dgemm` is the unoptimized oracle every optimized path is
// validated against: a straightforward triple loop with full support for
// layouts, transposes, alpha/beta and leading dimensions.
//
// `blocked_dgemm` is a simply cache-blocked variant (no packing, no
// vector kernels). It serves as the "textbook blocking" baseline in the
// native benchmarks and as a faster oracle for large test matrices.
#pragma once

#include <cstdint>

#include "blas/gemm_types.hpp"

namespace ag {

/// C := alpha * op(A) * op(B) + beta * C, exactly as BLAS dgemm defines it.
///
/// op(A) is m x k, op(B) is k x n, C is m x n. Leading dimensions refer to
/// the *stored* (pre-transpose) operands in the given layout.
void reference_dgemm(Layout layout, Trans trans_a, Trans trans_b,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     double alpha, const double* a, std::int64_t lda,
                     const double* b, std::int64_t ldb,
                     double beta, double* c, std::int64_t ldc);

/// Same contract, register/cache blocked but scalar and packing-free.
void blocked_dgemm(Layout layout, Trans trans_a, Trans trans_b,
                   std::int64_t m, std::int64_t n, std::int64_t k,
                   double alpha, const double* a, std::int64_t lda,
                   const double* b, std::int64_t ldb,
                   double beta, double* c, std::int64_t ldc);

/// Validates GEMM arguments; throws ag::InvalidArgument on violation.
/// Shared by the references and the optimized dgemm and sgemm so all of
/// them reject exactly the same inputs. The operands are only tested for
/// null, so they are taken untyped.
void validate_gemm_args(Layout layout, Trans trans_a, Trans trans_b,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        const void* a, std::int64_t lda,
                        const void* b, std::int64_t ldb,
                        const void* c, std::int64_t ldc);

}  // namespace ag
