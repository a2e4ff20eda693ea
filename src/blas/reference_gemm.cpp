#include "blas/reference_gemm.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace ag {
namespace {

// Element accessor for op(X) where X is stored column-major with leading
// dimension ld. op(X)(i,j) = X(i,j) or X(j,i).
inline double op_at(const double* x, std::int64_t ld, Trans t, std::int64_t i, std::int64_t j) {
  return t == Trans::NoTrans ? x[i + j * ld] : x[j + i * ld];
}

// Core column-major implementation.
void ref_colmajor(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                  double alpha, const double* a, std::int64_t lda, const double* b,
                  std::int64_t ldb, double beta, double* c, std::int64_t ldc) {
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += op_at(a, lda, trans_a, i, p) * op_at(b, ldb, trans_b, p, j);
      double& cij = c[i + j * ldc];
      cij = (beta == 0.0 ? 0.0 : beta * cij) + alpha * acc;
    }
  }
}

void blocked_colmajor(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                      std::int64_t k, double alpha, const double* a, std::int64_t lda,
                      const double* b, std::int64_t ldb, double beta, double* c,
                      std::int64_t ldc) {
  // Scale C by beta once up front so blocks can accumulate freely.
  for (std::int64_t j = 0; j < n; ++j) {
    if (beta == 0.0) {
      std::fill(c + j * ldc, c + j * ldc + m, 0.0);
    } else if (beta != 1.0) {
      for (std::int64_t i = 0; i < m; ++i) c[i + j * ldc] *= beta;
    }
  }
  constexpr std::int64_t kBm = 64, kBn = 64, kBk = 64;
  for (std::int64_t jj = 0; jj < n; jj += kBn) {
    const std::int64_t nb = std::min(kBn, n - jj);
    for (std::int64_t pp = 0; pp < k; pp += kBk) {
      const std::int64_t kb = std::min(kBk, k - pp);
      for (std::int64_t ii = 0; ii < m; ii += kBm) {
        const std::int64_t mb = std::min(kBm, m - ii);
        for (std::int64_t j = 0; j < nb; ++j) {
          for (std::int64_t i = 0; i < mb; ++i) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < kb; ++p)
              acc += op_at(a, lda, trans_a, ii + i, pp + p) *
                     op_at(b, ldb, trans_b, pp + p, jj + j);
            c[(ii + i) + (jj + j) * ldc] += alpha * acc;
          }
        }
      }
    }
  }
}

}  // namespace

void validate_gemm_args(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m,
                        std::int64_t n, std::int64_t k, const void* a, std::int64_t lda,
                        const void* b, std::int64_t ldb, const void* c, std::int64_t ldc) {
  AG_CHECK_MSG(m >= 0 && n >= 0 && k >= 0,
               "negative dimension m=" << m << " n=" << n << " k=" << k);
  // Row-major op(A) of shape m x k is stored as its k x m column-major
  // transpose, so the minimum leading dimensions swap accordingly.
  const bool col = layout == Layout::ColMajor;
  const std::int64_t a_rows = (trans_a == Trans::NoTrans) == col ? m : k;
  const std::int64_t b_rows = (trans_b == Trans::NoTrans) == col ? k : n;
  const std::int64_t c_rows = col ? m : n;
  AG_CHECK_MSG(lda >= std::max<std::int64_t>(1, a_rows), "lda=" << lda << " < " << a_rows);
  AG_CHECK_MSG(ldb >= std::max<std::int64_t>(1, b_rows), "ldb=" << ldb << " < " << b_rows);
  AG_CHECK_MSG(ldc >= std::max<std::int64_t>(1, c_rows), "ldc=" << ldc << " < " << c_rows);
  if (m > 0 && n > 0) {
    AG_CHECK_MSG(c != nullptr, "C is null");
    if (k > 0) {
      AG_CHECK_MSG(a != nullptr, "A is null");
      AG_CHECK_MSG(b != nullptr, "B is null");
    }
  }
}

void reference_dgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                     std::int64_t k, double alpha, const double* a, std::int64_t lda,
                     const double* b, std::int64_t ldb, double beta, double* c,
                     std::int64_t ldc) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;
  if (layout == Layout::ColMajor) {
    ref_colmajor(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    // Row-major C = op(A) op(B) is column-major C^T = op(B)^T op(A)^T.
    ref_colmajor(trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta, c, ldc);
  }
}

void blocked_dgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, double alpha, const double* a, std::int64_t lda,
                   const double* b, std::int64_t ldb, double beta, double* c, std::int64_t ldc) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;
  if (layout == Layout::ColMajor) {
    blocked_colmajor(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    blocked_colmajor(trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta, c, ldc);
  }
}

}  // namespace ag
