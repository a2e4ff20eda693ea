#include <algorithm>

#include "blas/reference_blas3.hpp"
#include "blas3/blas3.hpp"
#include "common/check.hpp"
#include "core/gemm.hpp"

namespace ag {

void dsyrk(Uplo uplo, Trans trans, std::int64_t n, std::int64_t k, double alpha,
           const double* a, std::int64_t lda, double beta, double* c, std::int64_t ldc,
           const Context& ctx) {
  AG_CHECK(n >= 0 && k >= 0);
  AG_CHECK(ldc >= std::max<index_t>(1, n));
  AG_CHECK(lda >= std::max<index_t>(1, trans == Trans::NoTrans ? n : k));
  if (n == 0) return;

  constexpr index_t nb = blas3_detail::kBlock;
  // op(A) row-block bi as a dgemm operand: for NoTrans the rows bi of A,
  // for Trans the columns bi of A (passed with Trans).
  auto block_ptr = [&](index_t i0) {
    return trans == Trans::NoTrans ? a + i0 : a + i0 * lda;
  };

  for (index_t j0 = 0; j0 < n; j0 += nb) {
    const index_t jb = std::min(nb, n - j0);
    // Diagonal block: reference syrk (handles the triangle and beta).
    reference_dsyrk(uplo, trans, jb, k, alpha, block_ptr(j0), lda, beta, c + j0 + j0 * ldc,
                    ldc);
    // Off-diagonal blocks of the stored triangle: plain dgemm.
    const index_t i_begin = uplo == Uplo::Lower ? j0 + jb : 0;
    const index_t i_end = uplo == Uplo::Lower ? n : j0;
    for (index_t i0 = i_begin; i0 < i_end; i0 += nb) {
      const index_t ib = std::min(nb, i_end - i0);
      dgemm(Layout::ColMajor, trans == Trans::NoTrans ? Trans::NoTrans : Trans::Trans,
            trans == Trans::NoTrans ? Trans::Trans : Trans::NoTrans, ib, jb, k, alpha,
            block_ptr(i0), lda, block_ptr(j0), lda, beta, c + i0 + j0 * ldc, ldc, ctx);
    }
  }
}

}  // namespace ag
