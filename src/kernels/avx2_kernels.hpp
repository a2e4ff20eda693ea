// AVX2+FMA register kernels for x86-64 hosts.
//
// These mirror the paper's ARMv8 register-blocking decisions on the host
// ISA: the 8x6 kernel keeps a 12-register accumulator tile (2 ymm per
// column x 6 columns) resident, streams A in two vector loads and B as
// broadcasts — the direct analogue of the paper's 24 accumulator v-registers
// plus rotated A/B registers. Compiled only when __AVX2__ && __FMA__.
#pragma once

#include "kernels/microkernel.hpp"

namespace ag {

/// True when this build contains the AVX2 kernels.
bool avx2_kernels_available();

#if defined(__AVX2__) && defined(__FMA__)
void avx2_microkernel_8x6(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                          index_t ldc);
void avx2_microkernel_8x4(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                          index_t ldc);
void avx2_microkernel_4x4(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                          index_t ldc);
void avx2_microkernel_12x4(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                           index_t ldc);

// Strided entries (microkernel.hpp): the same FMA chain and epilogue as
// the packed entries above, on A and B read in place.
void avx2_microkernel_8x6_strided(index_t kc, double alpha, const double* a, index_t lda,
                                  const double* b, index_t rsb, index_t csb, int cols,
                                  double beta, double* c, index_t ldc);
void avx2_microkernel_8x4_strided(index_t kc, double alpha, const double* a, index_t lda,
                                  const double* b, index_t rsb, index_t csb, int cols,
                                  double beta, double* c, index_t ldc);
void avx2_microkernel_4x4_strided(index_t kc, double alpha, const double* a, index_t lda,
                                  const double* b, index_t rsb, index_t csb, int cols,
                                  double beta, double* c, index_t ldc);
void avx2_microkernel_12x4_strided(index_t kc, double alpha, const double* a, index_t lda,
                                   const double* b, index_t rsb, index_t csb, int cols,
                                   double beta, double* c, index_t ldc);
#endif

}  // namespace ag
