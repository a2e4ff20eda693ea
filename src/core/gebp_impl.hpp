// Scalar-type-generic GEBP (layers 4-6). The double-precision gebp()
// delegates here; the single-precision GEMM instantiates it for float.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"

namespace ag::detail {

using index_t = std::int64_t;

inline constexpr int kMaxMr = 32;
inline constexpr int kMaxNr = 32;

/// Merges an edge tile into C: `tile` (leading dimension mr) holds
/// alpha*A*B from a kernel run with beta == 0, and the rows x cols
/// corner of it lands in C with the kernels' three-way epilogue, so
/// beta == 0 stays NaN/Inf-safe. GEBP and the unpacked small path both
/// merge through here, so their edge tiles round identically.
template <typename T>
inline void merge_edge_tile(index_t rows, index_t cols, T beta, const T* tile, int mr, T* c,
                            index_t ldc) {
  if (beta == T(0)) {
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i) c[i + j * ldc] = tile[i + j * mr];
  } else if (beta == T(1)) {
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i) c[i + j * ldc] += tile[i + j * mr];
  } else {
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i)
        c[i + j * ldc] = beta * c[i + j * ldc] + tile[i + j * mr];
  }
}

/// KernelFn: void(index_t kc, T alpha, const T* a, const T* b, T beta, T* c, index_t ldc).
///
/// `beta` follows the microkernel contract (C = beta*C + alpha*A*B per
/// tile): the drivers pass the caller's beta for the first k-panel and 1
/// for the rest, which removes the standalone scale-of-C sweep. Edge tiles
/// run the kernel with beta == 0 into a local padded tile and merge it
/// (merge_edge_tile).
template <typename T, typename KernelFn>
void gebp_t(index_t mc, index_t nc, index_t kc, T alpha, const T* packed_a, const T* packed_b,
            T beta, T* c, index_t ldc, KernelFn kernel, int mr, int nr) {
  AG_CHECK(mr <= kMaxMr && nr <= kMaxNr);
  if (mc <= 0 || nc <= 0 || kc <= 0) return;

  for (index_t j0 = 0; j0 < nc; j0 += nr) {  // layer 5
    const index_t cols = std::min<index_t>(nr, nc - j0);
    const T* b_sliver = packed_b + (j0 / nr) * nr * kc;
    for (index_t i0 = 0; i0 < mc; i0 += mr) {  // layer 6
      const index_t rows = std::min<index_t>(mr, mc - i0);
      const T* a_sliver = packed_a + (i0 / mr) * mr * kc;
      T* c_tile = c + i0 + j0 * ldc;
      if (rows == mr && cols == nr) {
        kernel(kc, alpha, a_sliver, b_sliver, beta, c_tile, ldc);
      } else {
        alignas(64) T tile[kMaxMr * kMaxNr];
        kernel(kc, alpha, a_sliver, b_sliver, T(0), tile, mr);
        merge_edge_tile(rows, cols, beta, tile, mr, c_tile, ldc);
      }
    }
  }
}

}  // namespace ag::detail
