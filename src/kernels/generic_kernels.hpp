// Portable C++ register kernels, templated on the register block shape.
//
// The accumulator tile lives in local variables that the compiler keeps in
// (vector) registers for the shapes used here; the loop structure matches
// the rank-1-update formulation of the paper's layer 7. The epilogue
// applies the fused beta per the microkernel contract: beta == 0 stores
// without reading C, beta == 1 accumulates, otherwise scale-and-add.
// The strided entry is generic over the element type and the packed
// kernel it wraps: the float kernels (sgemm_kernels.hpp) and the NEON
// kernels (registry.cpp) use it too.
#pragma once

#include <algorithm>
#include <vector>

#include "kernels/microkernel.hpp"

namespace ag {

template <int MR, int NR>
void generic_microkernel(index_t kc, double alpha, const double* a, const double* b,
                         double beta, double* c, index_t ldc) {
  double acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    for (int j = 0; j < NR; ++j) {
      const double bj = b[j];
      for (int i = 0; i < MR; ++i) acc[i][j] += a[i] * bj;
    }
    a += MR;
    b += NR;
  }
  if (beta == 0.0) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] = alpha * acc[i][j];
  } else if (beta == 1.0) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i][j];
  } else {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i)
        c[i + j * ldc] = beta * c[i + j * ldc] + alpha * acc[i][j];
  }
}

/// The strided entry (microkernel.hpp) of a packed kernel `Packed`, for
/// any element type: it gathers the A and B slivers into the packed
/// layout and runs `Packed` on them, so it stores the packed entry's bits
/// by construction. (A strided k-loop of FMAs does not: the compiler
/// vectorizes some packed generic k-loops into unfused multiplies and
/// in-order adds.) The slivers are only as aligned as std::vector's
/// storage, so `Packed` must not need the packing buffers' 32-byte
/// alignment (microkernel.hpp): the generic kernels' scalar loads and
/// the NEON kernels' vld1q need only element alignment; the AVX2
/// kernels, which load A aligned, have their own strided entries.
template <typename T, int MR, int NR,
          void (*Packed)(index_t, T, const T*, const T*, T, T*, index_t)>
void generic_microkernel_strided(index_t kc, T alpha, const T* a, index_t lda, const T* b,
                                 index_t rsb, index_t csb, int cols, T beta, T* c,
                                 index_t ldc) {
  thread_local std::vector<T> slivers;
  if (slivers.size() < static_cast<std::size_t>((MR + NR) * kc))
    slivers.resize(static_cast<std::size_t>((MR + NR) * kc));
  T* const ap = slivers.data();
  T* const bp = ap + MR * kc;
  for (index_t p = 0; p < kc; ++p) {
    for (int i = 0; i < MR; ++i) ap[p * MR + i] = a[i + p * lda];
    for (int j = 0; j < NR; ++j) bp[p * NR + j] = b[p * rsb + std::min(j, cols - 1) * csb];
  }
  Packed(kc, alpha, ap, bp, beta, c, ldc);
}

// Explicitly instantiated in generic_kernels.cpp for the paper's shapes.
extern template void generic_microkernel<8, 6>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<8, 4>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<4, 4>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<5, 5>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<6, 8>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<12, 4>(index_t, double, const double*, const double*,
                                                double, double*, index_t);
extern template void generic_microkernel<2, 2>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<1, 1>(index_t, double, const double*, const double*,
                                               double, double*, index_t);

}  // namespace ag
