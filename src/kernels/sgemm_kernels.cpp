#include "kernels/sgemm_kernels.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/knobs.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace ag {
namespace {

#if defined(__AVX2__) && defined(__FMA__)
// 16x6 float kernel, mirroring the double-precision 8x6 kernel: accHJ
// holds rows 8h..8h+7 of column j, 12 ymm accumulators in all. They are
// named values, not an indexed array, so the compiler keeps the whole
// tile in registers for the k-loop instead of on the stack.
void avx2_smicrokernel_16x6(index_t kc, float alpha, const float* a, const float* b, float beta,
                            float* c, index_t ldc) {
  __m256 acc00 = _mm256_setzero_ps(), acc10 = _mm256_setzero_ps();
  __m256 acc01 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc02 = _mm256_setzero_ps(), acc12 = _mm256_setzero_ps();
  __m256 acc03 = _mm256_setzero_ps(), acc13 = _mm256_setzero_ps();
  __m256 acc04 = _mm256_setzero_ps(), acc14 = _mm256_setzero_ps();
  __m256 acc05 = _mm256_setzero_ps(), acc15 = _mm256_setzero_ps();

  const index_t prea =
      static_cast<index_t>(prefetch_a_bytes()) / static_cast<index_t>(sizeof(float));
  const index_t preb =
      static_cast<index_t>(prefetch_b_bytes()) / static_cast<index_t>(sizeof(float));
  for (int j = 0; j < 6; ++j)
    _mm_prefetch(reinterpret_cast<const char*>(c + j * ldc), _MM_HINT_T0);

  for (index_t p = 0; p < kc; ++p) {
    if (prea) _mm_prefetch(reinterpret_cast<const char*>(a + prea), _MM_HINT_T0);
    if (preb) _mm_prefetch(reinterpret_cast<const char*>(b + preb), _MM_HINT_T0);
    const __m256 a0 = _mm256_load_ps(a);
    const __m256 a1 = _mm256_load_ps(a + 8);
    __m256 bj;
    bj = _mm256_broadcast_ss(b + 0);
    acc00 = _mm256_fmadd_ps(a0, bj, acc00);
    acc10 = _mm256_fmadd_ps(a1, bj, acc10);
    bj = _mm256_broadcast_ss(b + 1);
    acc01 = _mm256_fmadd_ps(a0, bj, acc01);
    acc11 = _mm256_fmadd_ps(a1, bj, acc11);
    bj = _mm256_broadcast_ss(b + 2);
    acc02 = _mm256_fmadd_ps(a0, bj, acc02);
    acc12 = _mm256_fmadd_ps(a1, bj, acc12);
    bj = _mm256_broadcast_ss(b + 3);
    acc03 = _mm256_fmadd_ps(a0, bj, acc03);
    acc13 = _mm256_fmadd_ps(a1, bj, acc13);
    bj = _mm256_broadcast_ss(b + 4);
    acc04 = _mm256_fmadd_ps(a0, bj, acc04);
    acc14 = _mm256_fmadd_ps(a1, bj, acc14);
    bj = _mm256_broadcast_ss(b + 5);
    acc05 = _mm256_fmadd_ps(a0, bj, acc05);
    acc15 = _mm256_fmadd_ps(a1, bj, acc15);
    a += 16;
    b += 6;
  }

  const __m256 va = _mm256_set1_ps(alpha);
  if (beta == 0.0f) {
    // Overwrite without reading C: NaN/Inf garbage must not propagate.
    auto store = [&](float* cj, __m256 lo, __m256 hi) {
      _mm256_storeu_ps(cj, _mm256_mul_ps(va, lo));
      _mm256_storeu_ps(cj + 8, _mm256_mul_ps(va, hi));
    };
    store(c + 0 * ldc, acc00, acc10);
    store(c + 1 * ldc, acc01, acc11);
    store(c + 2 * ldc, acc02, acc12);
    store(c + 3 * ldc, acc03, acc13);
    store(c + 4 * ldc, acc04, acc14);
    store(c + 5 * ldc, acc05, acc15);
  } else if (beta == 1.0f) {
    auto update = [&](float* cj, __m256 lo, __m256 hi) {
      _mm256_storeu_ps(cj, _mm256_fmadd_ps(va, lo, _mm256_loadu_ps(cj)));
      _mm256_storeu_ps(cj + 8, _mm256_fmadd_ps(va, hi, _mm256_loadu_ps(cj + 8)));
    };
    update(c + 0 * ldc, acc00, acc10);
    update(c + 1 * ldc, acc01, acc11);
    update(c + 2 * ldc, acc02, acc12);
    update(c + 3 * ldc, acc03, acc13);
    update(c + 4 * ldc, acc04, acc14);
    update(c + 5 * ldc, acc05, acc15);
  } else {
    const __m256 vb = _mm256_set1_ps(beta);
    auto scale = [&](float* cj, __m256 lo, __m256 hi) {
      _mm256_storeu_ps(cj, _mm256_fmadd_ps(vb, _mm256_loadu_ps(cj), _mm256_mul_ps(va, lo)));
      _mm256_storeu_ps(cj + 8,
                       _mm256_fmadd_ps(vb, _mm256_loadu_ps(cj + 8), _mm256_mul_ps(va, hi)));
    };
    scale(c + 0 * ldc, acc00, acc10);
    scale(c + 1 * ldc, acc01, acc11);
    scale(c + 2 * ldc, acc02, acc12);
    scale(c + 3 * ldc, acc03, acc13);
    scale(c + 4 * ldc, acc04, acc14);
    scale(c + 5 * ldc, acc05, acc15);
  }
}
#endif

std::vector<SMicrokernel> build_registry() {
  std::vector<SMicrokernel> ks;
  ks.push_back({"sgeneric_16x6", 16, 6, &generic_smicrokernel<16, 6>});
  ks.push_back({"sgeneric_8x8", 8, 8, &generic_smicrokernel<8, 8>});
  ks.push_back({"sgeneric_8x6", 8, 6, &generic_smicrokernel<8, 6>});
#if defined(__AVX2__) && defined(__FMA__)
  ks.push_back({"savx2_16x6", 16, 6, &avx2_smicrokernel_16x6});
#endif
  return ks;
}

}  // namespace

const std::vector<SMicrokernel>& all_smicrokernels() {
  static const std::vector<SMicrokernel> registry = build_registry();
  return registry;
}

const SMicrokernel& best_smicrokernel() {
#if defined(__AVX2__) && defined(__FMA__)
  for (const auto& k : all_smicrokernels())
    if (k.name == "savx2_16x6") return k;
#endif
  return all_smicrokernels().front();
}

}  // namespace ag
