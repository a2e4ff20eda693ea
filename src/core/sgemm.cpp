#include "core/sgemm.hpp"

#include <algorithm>

#include "blas/reference_gemm.hpp"
#include "common/knobs.hpp"
#include "core/context.hpp"
#include "core/gemm_internal.hpp"
#include "core/tuning.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "tune/tune.hpp"

namespace ag {
namespace {

/// The blocking sgemm runs without the tuner: the kernel's defaults with
/// the caller's explicit kc/mc/nc. The small path always runs it.
BlockSizes untuned_block_sizes(const SMicrokernel& k, const SgemmOptions& options) {
  BlockSizes bs = default_sgemm_block_sizes(KernelShape{k.mr, k.nr});
  if (options.kc > 0) bs.kc = options.kc;
  if (options.mc > 0) bs.mc = options.mc;
  if (options.nc > 0) bs.nc = options.nc;
  return bs;
}

detail::GemmPlan<float> resolve_plan(const SgemmOptions& options, int threads, index_t m,
                                     index_t n, index_t k_dim) {
  const SMicrokernel& k = best_smicrokernel();
  detail::GemmPlan<float> plan;
  plan.kernel = k.fn;
  BlockSizes& bs = plan.bs;
  bs = untuned_block_sizes(k, options);
  if (options.tunable && options.kc == 0 && options.mc == 0 && options.nc == 0 &&
      tune_mode() != kTuneModeOff) {
    ensure_tune_probe_runner();
    const tune::TunedConfig* tc = tune::resolve(tune::Precision::kF32, m, n, k_dim, threads);
    if (tc != nullptr && tc->mr == bs.mr && tc->nr == bs.nr) {
      bs.kc = tc->kc;
      bs.mc = threads > 1 ? tc->mc_mt : tc->mc;
      bs.nc = threads > 1 ? tc->nc_mt : tc->nc;
      tune::record_call(tc->source);
      return plan;
    }
    tune::record_call(tune::TuneSource::kNone);
  }
  return plan;
}

/// sgemm takes no Context, so each caller thread keeps one, as the C API
/// does for its dgemm calls: its fork/join pool and packing scratch are
/// reused by every sgemm call the thread makes.
const Context& caller_context(int threads) {
  thread_local Context ctx;
  if (ctx.threads() != threads) ctx.set_threads(threads);
  return ctx;
}

void sref_colmajor(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb, float beta,
                   float* c, index_t ldc) {
  auto op_at = [](const float* x, index_t ld, Trans t, index_t i, index_t j) {
    return t == Trans::NoTrans ? x[i + j * ld] : x[j + i * ld];
  };
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      float acc = 0.0f;
      for (index_t p = 0; p < k; ++p)
        acc += op_at(a, lda, trans_a, i, p) * op_at(b, ldb, trans_b, p, j);
      float& cij = c[i + j * ldc];
      cij = (beta == 0.0f ? 0.0f : beta * cij) + alpha * acc;
    }
  }
}

}  // namespace

void sgemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b, index_t ldb, float beta,
           float* c, index_t ldc, const SgemmOptions& options) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;
  if (layout == Layout::RowMajor) {
    sgemm(Layout::ColMajor, trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta, c, ldc,
          options);
    return;
  }
  if (k == 0 || alpha == 0.0f) {
    detail::scale_panel(c, ldc, m, n, beta);
    return;
  }
  const int threads = std::max(1, options.threads);
  const SMicrokernel& kernel = best_smicrokernel();
  detail::run_gemm(
      detail::GemmCall<float>{trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc},
      caller_context(threads), {kernel.strided, untuned_block_sizes(kernel, options)}, {},
      [&](index_t pm, index_t pn, index_t pk) {
        return resolve_plan(options, threads, pm, pn, pk);
      });
}

void reference_sgemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n,
                     index_t k, float alpha, const float* a, index_t lda, const float* b,
                     index_t ldb, float beta, float* c, index_t ldc) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;
  if (layout == Layout::RowMajor) {
    reference_sgemm(Layout::ColMajor, trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta,
                    c, ldc);
    return;
  }
  sref_colmajor(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace ag
