// The GEMM driver shared by dgemm (core/gemm.cpp), sgemm (core/sgemm.cpp),
// the autotuner's probes (core/tuning.cpp) and batch tickets
// (core/gemm_batch.cpp), templated on the element type like the packing
// and GEBP it drives. A batch ticket runs the small path or the blocked
// driver at one rank over its row slice, fetching B panels through the
// panel cache. Not part of the public surface.
//
// Both paths run the same register kernel over the same tile grid with
// the same kc chunks, so the small path stores the bits the untuned
// blocked path would: where the crossover sits moves only speed, never
// results. (A tunable context's blocked path may run the tuner's kernel
// and kc, which the small path never consults.)
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "blas/gemm_types.hpp"
#include "common/knobs.hpp"
#include "core/block_sizes.hpp"
#include "core/context.hpp"
#include "core/schedule.hpp"
#include "obs/flight.hpp"
#include "obs/region.hpp"

namespace ag {
namespace detail {

/// Register-kernel signature for element type T (MicrokernelFn,
/// SMicrokernelFn).
template <typename T>
using KernelFnT = void (*)(index_t kc, T alpha, const T* a, const T* b, T beta, T* c,
                           index_t ldc);

/// Strided-entry signature for element type T (StridedMicrokernelFn,
/// SStridedMicrokernelFn).
template <typename T>
using StridedKernelFnT = void (*)(index_t kc, T alpha, const T* a, index_t lda, const T* b,
                                  index_t rsb, index_t csb, int cols, T beta, T* c,
                                  index_t ldc);

/// One column-major C := alpha op(A) op(B) + beta C.
template <typename T>
struct GemmCall {
  Trans trans_a, trans_b;
  index_t m, n, k;
  T alpha;
  const T* a;
  index_t lda;
  const T* b;
  index_t ldb;
  T beta;
  T* c;
  index_t ldc;
};

/// Kernel and blocking of one blocked call. `mc_class` is the per-core-
/// class mc (tune::per_class_mc) on asymmetric hosts, empty otherwise.
template <typename T>
struct GemmPlan {
  KernelFnT<T> kernel = nullptr;
  BlockSizes bs;
  std::vector<index_t> mc_class;
};

/// Kernel and blocking of the unpacked small path: the strided entry of
/// the caller's configured register kernel and the blocking the blocked
/// path would run untuned, whose kc fixes the k chunks and so the
/// rounding.
template <typename T>
struct SmallPlan {
  StridedKernelFnT<T> kernel = nullptr;
  BlockSizes bs;
};

/// dgemm's and batch's small plan: the context's configured kernel and
/// blocking, never the tuner's, so a pinned context's small calls are
/// bitwise equal to its blocked ones.
inline SmallPlan<double> small_plan(const Context& ctx) {
  return {ctx.kernel().strided, ctx.block_sizes()};
}

/// Where the lone rank of gemm_blocked gets the packed kc x nc panel of
/// op(B) at (kk, jj), `elems` elements long: it returns the panel, calling
/// `pack(dst)` (the driver's instrumented packer) if it has to fill one,
/// or nullptr to have the driver pack into its own scratch. The panel must
/// stay valid until the next request. Batch tickets share panels through
/// the PanelCache with one.
template <typename T>
using PanelSource =
    std::function<const T*(index_t kk, index_t jj, index_t kc, index_t nc, index_t elems,
                           const std::function<void(T*)>& pack)>;

/// How run_gemm executed one call; feeds the serving-telemetry record.
struct RunInfo {
  obs::ScheduleKind schedule = obs::ScheduleKind::kSerial;
  int threads = 1;
  BlockSizes bs;  // the blocking the call actually ran with
};

/// beta-only epilogue: C := beta * C over an m x n panel. Used when no
/// multiply runs at all (k == 0 or alpha == 0).
template <typename T>
void scale_panel(T* c, index_t ldc, index_t m, index_t n, T beta);

/// The unpacked small path, serial, inside one obs::Region: the blocked
/// path's tile loops and kc chunks with the register kernel's strided
/// entry reading A and B in place. Only op(A) that is not column-
/// contiguous, and the partial last mr-sliver of A, are packed (mc rows
/// at a time); B is never packed. Output is bitwise equal to the blocked
/// path's with plan.bs.kc.
template <typename T>
void gemm_small(const GemmCall<T>& g, const SmallPlan<T>& plan, const obs::Sinks& sinks);

/// The Figure 9 blocked driver on `ranks` ranks: rank 0 is the caller and
/// ranks > 1 run on `pool`. At one rank there is no pool, no barrier and
/// no pack-ahead double buffer, so the loop is the plain serial nest, and
/// a non-empty `panel_source` supplies its B panels.
template <typename T>
void gemm_blocked(const GemmCall<T>& g, const GemmPlan<T>& plan, PackBuffers<T>& scratch,
                  ThreadPool* pool, int ranks, const obs::Sinks& sinks,
                  const PanelSource<T>& panel_source = {});

/// Runs one column-major call with m, n, k > 0 and alpha != 0: the
/// unpacked small path when use_small_gemm says so, else the blocked
/// driver on up to ctx.threads() ranks, clamped to the blocks the widest
/// panel offers (surplus ranks would only add barrier traffic; one block
/// runs serially). `resolve(m, n, k)` returns the GemmPlan and is called
/// only on the blocked path, so a small call never consults the tuner,
/// borrows scratch or starts the pool.
template <typename T, typename Resolve>
RunInfo run_gemm(const GemmCall<T>& g, const Context& ctx, const SmallPlan<T>& small,
                 const obs::Sinks& sinks, Resolve&& resolve) {
  RunInfo info;
  info.bs = small.bs;
  if (use_small_gemm(g.m, g.n, g.k)) {
    gemm_small(g, small, sinks);
    info.schedule = obs::ScheduleKind::kSmall;
    return info;
  }
  const GemmPlan<T> plan = resolve(g.m, g.n, g.k);
  const BlockSizes& bs = plan.bs;
  info.bs = bs;
  if (ctx.threads() > 1 && g.m > bs.mr) {
    const PanelSchedule probe(g.m, std::min(bs.nc, g.n), bs.mc, bs.nr, ctx.threads());
    info.threads = static_cast<int>(std::min<index_t>(ctx.threads(), probe.total_blocks()));
  }
  if (info.threads > 1) info.schedule = obs::ScheduleKind::kParallel;
  Context::ScratchLease scratch = ctx.acquire_scratch();
  gemm_blocked(g, plan, scratch->buffers<T>(), info.threads > 1 ? &ctx.pool() : nullptr,
               info.threads, sinks);
  return info;
}

}  // namespace detail
}  // namespace ag
