#include "kernels/avx2_kernels.hpp"

#include "common/knobs.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace ag {

bool avx2_kernels_available() {
#if defined(__AVX2__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// Knob bytes -> element offsets, resolved once per kernel invocation.
inline index_t prea_elems() {
  return static_cast<index_t>(prefetch_a_bytes()) / static_cast<index_t>(sizeof(double));
}
inline index_t preb_elems() {
  return static_cast<index_t>(prefetch_b_bytes()) / static_cast<index_t>(sizeof(double));
}

// Pull the C tile's lines toward L1 before the k-loop so the epilogue's
// loads (beta != 0) or stores hit warm lines. An mr x nr double tile is at
// most two cache lines per column.
template <int MR, int NR>
inline void prefetch_c_tile(const double* c, index_t ldc) {
  for (int j = 0; j < NR; ++j) {
    const char* cj = reinterpret_cast<const char*>(c + j * ldc);
    _mm_prefetch(cj, _MM_HINT_T0);
    if constexpr (MR * sizeof(double) > 64) _mm_prefetch(cj + 64, _MM_HINT_T0);
  }
}

}  // namespace

void avx2_microkernel_8x6(index_t kc, double alpha, const double* a, const double* b,
                          double beta, double* c, index_t ldc) {
  // Accumulators: acc[h][j] holds rows 4h..4h+3 of column j. 12 ymm total,
  // leaving registers for two A vectors and the B broadcast.
  __m256d acc00 = _mm256_setzero_pd(), acc10 = _mm256_setzero_pd();
  __m256d acc01 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc02 = _mm256_setzero_pd(), acc12 = _mm256_setzero_pd();
  __m256d acc03 = _mm256_setzero_pd(), acc13 = _mm256_setzero_pd();
  __m256d acc04 = _mm256_setzero_pd(), acc14 = _mm256_setzero_pd();
  __m256d acc05 = _mm256_setzero_pd(), acc15 = _mm256_setzero_pd();

  const index_t prea = prea_elems();
  const index_t preb = preb_elems();
  prefetch_c_tile<8, 6>(c, ldc);

  for (index_t p = 0; p < kc; ++p) {
    if (prea) _mm_prefetch(reinterpret_cast<const char*>(a + prea), _MM_HINT_T0);
    if (preb) _mm_prefetch(reinterpret_cast<const char*>(b + preb), _MM_HINT_T0);
    const __m256d a0 = _mm256_load_pd(a);
    const __m256d a1 = _mm256_load_pd(a + 4);
    __m256d bj;
    bj = _mm256_broadcast_sd(b + 0);
    acc00 = _mm256_fmadd_pd(a0, bj, acc00);
    acc10 = _mm256_fmadd_pd(a1, bj, acc10);
    bj = _mm256_broadcast_sd(b + 1);
    acc01 = _mm256_fmadd_pd(a0, bj, acc01);
    acc11 = _mm256_fmadd_pd(a1, bj, acc11);
    bj = _mm256_broadcast_sd(b + 2);
    acc02 = _mm256_fmadd_pd(a0, bj, acc02);
    acc12 = _mm256_fmadd_pd(a1, bj, acc12);
    bj = _mm256_broadcast_sd(b + 3);
    acc03 = _mm256_fmadd_pd(a0, bj, acc03);
    acc13 = _mm256_fmadd_pd(a1, bj, acc13);
    bj = _mm256_broadcast_sd(b + 4);
    acc04 = _mm256_fmadd_pd(a0, bj, acc04);
    acc14 = _mm256_fmadd_pd(a1, bj, acc14);
    bj = _mm256_broadcast_sd(b + 5);
    acc05 = _mm256_fmadd_pd(a0, bj, acc05);
    acc15 = _mm256_fmadd_pd(a1, bj, acc15);
    a += 8;
    b += 6;
  }

  const __m256d va = _mm256_set1_pd(alpha);
  if (beta == 0.0) {
    // Overwrite without reading C: NaN/Inf garbage must not propagate.
    auto store = [&](double* cj, __m256d lo, __m256d hi) {
      _mm256_storeu_pd(cj, _mm256_mul_pd(va, lo));
      _mm256_storeu_pd(cj + 4, _mm256_mul_pd(va, hi));
    };
    store(c + 0 * ldc, acc00, acc10);
    store(c + 1 * ldc, acc01, acc11);
    store(c + 2 * ldc, acc02, acc12);
    store(c + 3 * ldc, acc03, acc13);
    store(c + 4 * ldc, acc04, acc14);
    store(c + 5 * ldc, acc05, acc15);
  } else if (beta == 1.0) {
    auto update = [&](double* cj, __m256d lo, __m256d hi) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(va, lo, _mm256_loadu_pd(cj)));
      _mm256_storeu_pd(cj + 4, _mm256_fmadd_pd(va, hi, _mm256_loadu_pd(cj + 4)));
    };
    update(c + 0 * ldc, acc00, acc10);
    update(c + 1 * ldc, acc01, acc11);
    update(c + 2 * ldc, acc02, acc12);
    update(c + 3 * ldc, acc03, acc13);
    update(c + 4 * ldc, acc04, acc14);
    update(c + 5 * ldc, acc05, acc15);
  } else {
    const __m256d vb = _mm256_set1_pd(beta);
    auto scale = [&](double* cj, __m256d lo, __m256d hi) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj), _mm256_mul_pd(va, lo)));
      _mm256_storeu_pd(cj + 4,
                       _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj + 4), _mm256_mul_pd(va, hi)));
    };
    scale(c + 0 * ldc, acc00, acc10);
    scale(c + 1 * ldc, acc01, acc11);
    scale(c + 2 * ldc, acc02, acc12);
    scale(c + 3 * ldc, acc03, acc13);
    scale(c + 4 * ldc, acc04, acc14);
    scale(c + 5 * ldc, acc05, acc15);
  }
}

void avx2_microkernel_8x4(index_t kc, double alpha, const double* a, const double* b,
                          double beta, double* c, index_t ldc) {
  __m256d acc00 = _mm256_setzero_pd(), acc10 = _mm256_setzero_pd();
  __m256d acc01 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc02 = _mm256_setzero_pd(), acc12 = _mm256_setzero_pd();
  __m256d acc03 = _mm256_setzero_pd(), acc13 = _mm256_setzero_pd();

  const index_t prea = prea_elems();
  const index_t preb = preb_elems();
  prefetch_c_tile<8, 4>(c, ldc);

  for (index_t p = 0; p < kc; ++p) {
    if (prea) _mm_prefetch(reinterpret_cast<const char*>(a + prea), _MM_HINT_T0);
    if (preb) _mm_prefetch(reinterpret_cast<const char*>(b + preb), _MM_HINT_T0);
    const __m256d a0 = _mm256_load_pd(a);
    const __m256d a1 = _mm256_load_pd(a + 4);
    __m256d bj;
    bj = _mm256_broadcast_sd(b + 0);
    acc00 = _mm256_fmadd_pd(a0, bj, acc00);
    acc10 = _mm256_fmadd_pd(a1, bj, acc10);
    bj = _mm256_broadcast_sd(b + 1);
    acc01 = _mm256_fmadd_pd(a0, bj, acc01);
    acc11 = _mm256_fmadd_pd(a1, bj, acc11);
    bj = _mm256_broadcast_sd(b + 2);
    acc02 = _mm256_fmadd_pd(a0, bj, acc02);
    acc12 = _mm256_fmadd_pd(a1, bj, acc12);
    bj = _mm256_broadcast_sd(b + 3);
    acc03 = _mm256_fmadd_pd(a0, bj, acc03);
    acc13 = _mm256_fmadd_pd(a1, bj, acc13);
    a += 8;
    b += 4;
  }

  const __m256d va = _mm256_set1_pd(alpha);
  if (beta == 0.0) {
    auto store = [&](double* cj, __m256d lo, __m256d hi) {
      _mm256_storeu_pd(cj, _mm256_mul_pd(va, lo));
      _mm256_storeu_pd(cj + 4, _mm256_mul_pd(va, hi));
    };
    store(c + 0 * ldc, acc00, acc10);
    store(c + 1 * ldc, acc01, acc11);
    store(c + 2 * ldc, acc02, acc12);
    store(c + 3 * ldc, acc03, acc13);
  } else if (beta == 1.0) {
    auto update = [&](double* cj, __m256d lo, __m256d hi) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(va, lo, _mm256_loadu_pd(cj)));
      _mm256_storeu_pd(cj + 4, _mm256_fmadd_pd(va, hi, _mm256_loadu_pd(cj + 4)));
    };
    update(c + 0 * ldc, acc00, acc10);
    update(c + 1 * ldc, acc01, acc11);
    update(c + 2 * ldc, acc02, acc12);
    update(c + 3 * ldc, acc03, acc13);
  } else {
    const __m256d vb = _mm256_set1_pd(beta);
    auto scale = [&](double* cj, __m256d lo, __m256d hi) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj), _mm256_mul_pd(va, lo)));
      _mm256_storeu_pd(cj + 4,
                       _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj + 4), _mm256_mul_pd(va, hi)));
    };
    scale(c + 0 * ldc, acc00, acc10);
    scale(c + 1 * ldc, acc01, acc11);
    scale(c + 2 * ldc, acc02, acc12);
    scale(c + 3 * ldc, acc03, acc13);
  }
}

void avx2_microkernel_4x4(index_t kc, double alpha, const double* a, const double* b,
                          double beta, double* c, index_t ldc) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();

  const index_t prea = prea_elems();
  const index_t preb = preb_elems();
  prefetch_c_tile<4, 4>(c, ldc);

  for (index_t p = 0; p < kc; ++p) {
    if (prea) _mm_prefetch(reinterpret_cast<const char*>(a + prea), _MM_HINT_T0);
    if (preb) _mm_prefetch(reinterpret_cast<const char*>(b + preb), _MM_HINT_T0);
    const __m256d a0 = _mm256_load_pd(a);
    acc0 = _mm256_fmadd_pd(a0, _mm256_broadcast_sd(b + 0), acc0);
    acc1 = _mm256_fmadd_pd(a0, _mm256_broadcast_sd(b + 1), acc1);
    acc2 = _mm256_fmadd_pd(a0, _mm256_broadcast_sd(b + 2), acc2);
    acc3 = _mm256_fmadd_pd(a0, _mm256_broadcast_sd(b + 3), acc3);
    a += 4;
    b += 4;
  }

  const __m256d va = _mm256_set1_pd(alpha);
  if (beta == 0.0) {
    auto store = [&](double* cj, __m256d v) { _mm256_storeu_pd(cj, _mm256_mul_pd(va, v)); };
    store(c + 0 * ldc, acc0);
    store(c + 1 * ldc, acc1);
    store(c + 2 * ldc, acc2);
    store(c + 3 * ldc, acc3);
  } else if (beta == 1.0) {
    auto update = [&](double* cj, __m256d v) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(va, v, _mm256_loadu_pd(cj)));
    };
    update(c + 0 * ldc, acc0);
    update(c + 1 * ldc, acc1);
    update(c + 2 * ldc, acc2);
    update(c + 3 * ldc, acc3);
  } else {
    const __m256d vb = _mm256_set1_pd(beta);
    auto scale = [&](double* cj, __m256d v) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj), _mm256_mul_pd(va, v)));
    };
    scale(c + 0 * ldc, acc0);
    scale(c + 1 * ldc, acc1);
    scale(c + 2 * ldc, acc2);
    scale(c + 3 * ldc, acc3);
  }
}

void avx2_microkernel_12x4(index_t kc, double alpha, const double* a, const double* b,
                           double beta, double* c, index_t ldc) {
  // 12x4 uses 12 accumulators like 8x6 but favours taller A panels; included
  // as an extension shape for the native benchmarks. accHJ holds rows
  // 4h..4h+3 of column j; as in 8x6 they are named values, not an indexed
  // array, so the tile stays in registers for the whole k-loop.
  __m256d acc00 = _mm256_setzero_pd(), acc10 = _mm256_setzero_pd(), acc20 = _mm256_setzero_pd();
  __m256d acc01 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc02 = _mm256_setzero_pd(), acc12 = _mm256_setzero_pd(), acc22 = _mm256_setzero_pd();
  __m256d acc03 = _mm256_setzero_pd(), acc13 = _mm256_setzero_pd(), acc23 = _mm256_setzero_pd();

  const index_t prea = prea_elems();
  const index_t preb = preb_elems();
  prefetch_c_tile<12, 4>(c, ldc);

  for (index_t p = 0; p < kc; ++p) {
    if (prea) _mm_prefetch(reinterpret_cast<const char*>(a + prea), _MM_HINT_T0);
    if (preb) _mm_prefetch(reinterpret_cast<const char*>(b + preb), _MM_HINT_T0);
    const __m256d a0 = _mm256_load_pd(a);
    const __m256d a1 = _mm256_load_pd(a + 4);
    const __m256d a2 = _mm256_load_pd(a + 8);
    __m256d bj;
    bj = _mm256_broadcast_sd(b + 0);
    acc00 = _mm256_fmadd_pd(a0, bj, acc00);
    acc10 = _mm256_fmadd_pd(a1, bj, acc10);
    acc20 = _mm256_fmadd_pd(a2, bj, acc20);
    bj = _mm256_broadcast_sd(b + 1);
    acc01 = _mm256_fmadd_pd(a0, bj, acc01);
    acc11 = _mm256_fmadd_pd(a1, bj, acc11);
    acc21 = _mm256_fmadd_pd(a2, bj, acc21);
    bj = _mm256_broadcast_sd(b + 2);
    acc02 = _mm256_fmadd_pd(a0, bj, acc02);
    acc12 = _mm256_fmadd_pd(a1, bj, acc12);
    acc22 = _mm256_fmadd_pd(a2, bj, acc22);
    bj = _mm256_broadcast_sd(b + 3);
    acc03 = _mm256_fmadd_pd(a0, bj, acc03);
    acc13 = _mm256_fmadd_pd(a1, bj, acc13);
    acc23 = _mm256_fmadd_pd(a2, bj, acc23);
    a += 12;
    b += 4;
  }

  const __m256d va = _mm256_set1_pd(alpha);
  if (beta == 0.0) {
    auto store = [&](double* cj, __m256d v0, __m256d v1, __m256d v2) {
      _mm256_storeu_pd(cj, _mm256_mul_pd(va, v0));
      _mm256_storeu_pd(cj + 4, _mm256_mul_pd(va, v1));
      _mm256_storeu_pd(cj + 8, _mm256_mul_pd(va, v2));
    };
    store(c + 0 * ldc, acc00, acc10, acc20);
    store(c + 1 * ldc, acc01, acc11, acc21);
    store(c + 2 * ldc, acc02, acc12, acc22);
    store(c + 3 * ldc, acc03, acc13, acc23);
  } else if (beta == 1.0) {
    auto update = [&](double* cj, __m256d v0, __m256d v1, __m256d v2) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(va, v0, _mm256_loadu_pd(cj)));
      _mm256_storeu_pd(cj + 4, _mm256_fmadd_pd(va, v1, _mm256_loadu_pd(cj + 4)));
      _mm256_storeu_pd(cj + 8, _mm256_fmadd_pd(va, v2, _mm256_loadu_pd(cj + 8)));
    };
    update(c + 0 * ldc, acc00, acc10, acc20);
    update(c + 1 * ldc, acc01, acc11, acc21);
    update(c + 2 * ldc, acc02, acc12, acc22);
    update(c + 3 * ldc, acc03, acc13, acc23);
  } else {
    const __m256d vb = _mm256_set1_pd(beta);
    auto scale = [&](double* cj, __m256d v0, __m256d v1, __m256d v2) {
      _mm256_storeu_pd(cj, _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj), _mm256_mul_pd(va, v0)));
      _mm256_storeu_pd(cj + 4,
                       _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj + 4), _mm256_mul_pd(va, v1)));
      _mm256_storeu_pd(cj + 8,
                       _mm256_fmadd_pd(vb, _mm256_loadu_pd(cj + 8), _mm256_mul_pd(va, v2)));
    };
    scale(c + 0 * ldc, acc00, acc10, acc20);
    scale(c + 1 * ldc, acc01, acc11, acc21);
    scale(c + 2 * ldc, acc02, acc12, acc22);
    scale(c + 3 * ldc, acc03, acc13, acc23);
  }
}

#endif  // __AVX2__ && __FMA__

}  // namespace ag
