// Single-precision register kernels. SGEMM doubles every SIMD width, so
// the paper's 8x6 double-precision register blocking maps to 16x6 in
// float (two 256-bit rows per column on AVX2, four 128-bit rows on NEON)
// with the same 12-accumulator structure and gamma reasoning.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/generic_kernels.hpp"

namespace ag {

using SMicrokernelFn = void (*)(index_t kc, float alpha, const float* a, const float* b,
                                float beta, float* c, index_t ldc);

/// The strided entry, as StridedMicrokernelFn (microkernel.hpp) in float.
using SStridedMicrokernelFn = void (*)(index_t kc, float alpha, const float* a, index_t lda,
                                       const float* b, index_t rsb, index_t csb, int cols,
                                       float beta, float* c, index_t ldc);

struct SMicrokernel {
  std::string name;
  int mr = 0;
  int nr = 0;
  SMicrokernelFn fn = nullptr;
  SStridedMicrokernelFn strided = nullptr;  // the small path's entry; every kernel has one
};

/// Generic scalar float kernel, any shape. Same fused-beta contract as the
/// double-precision microkernels: beta == 0 overwrites without reading C.
/// Its strided entry is generic_microkernel_strided<float, MR, NR, ...>.
template <int MR, int NR>
void generic_smicrokernel(index_t kc, float alpha, const float* a, const float* b, float beta,
                          float* c, index_t ldc) {
  float acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    for (int j = 0; j < NR; ++j) {
      const float bj = b[j];
      for (int i = 0; i < MR; ++i) acc[i][j] += a[i] * bj;
    }
    a += MR;
    b += NR;
  }
  if (beta == 0.0f) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] = alpha * acc[i][j];
  } else if (beta == 1.0f) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i][j];
  } else {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i)
        c[i + j * ldc] = beta * c[i + j * ldc] + alpha * acc[i][j];
  }
}

/// Best available float kernel on this build (AVX2 16x6 on x86 hosts,
/// generic 16x6 otherwise).
const SMicrokernel& best_smicrokernel();

/// All registered float kernels (for tests).
const std::vector<SMicrokernel>& all_smicrokernels();

}  // namespace ag
