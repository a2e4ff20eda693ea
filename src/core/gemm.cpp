#include "core/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "blas/reference_gemm.hpp"
#include "common/check.hpp"
#include "common/knobs.hpp"
#include "common/math_util.hpp"
#include "core/gebp_impl.hpp"
#include "core/gemm_internal.hpp"
#include "core/packing_impl.hpp"
#include "core/schedule.hpp"
#include "core/tuning.hpp"
#include "obs/region.hpp"
#include "obs/telemetry.hpp"
#include "threading/topology.hpp"

namespace ag {

namespace detail {

// Only used when no multiply runs at all (k == 0 or alpha == 0): with the
// beta epilogue fused into the microkernels, the compute paths never make
// a standalone pass over C.
template <typename T>
void scale_panel(T* c, index_t ldc, index_t m, index_t n, T beta) {
  if (beta == T(1)) return;
  for (index_t j = 0; j < n; ++j) {
    T* col = c + j * ldc;
    if (beta == T(0)) {
      std::fill(col, col + m, T(0));
    } else {
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
}

// The unpacked small path (m*n*k <= ARMGEMM_SMALL_MNK^3). At these sizes
// the operands are cold and barely reused, and packing is traffic that
// only pays through reuse (Section III), so it is skipped wherever the
// kernel can read an operand in place. The loops are the one-rank
// blocked path's: nc panels, kc chunks with beta on the first and 1
// after, mc row blocks, nr column tiles outside mr row tiles, so the
// tile grid is the blocked path's even when mc or nc is not a multiple
// of the register block. The register kernel's strided entry reads B in
// place at any stride and A down its columns. Only what cannot be read
// that way is packed, with the blocked path's packer: all of op(A) when
// it is transposed, else the partial last mr-sliver (whose padding rows
// are zeros, as in a packed block). Edge tiles go through a local tile
// and merge_edge_tile as in GEBP, so every C element sees the blocked
// path's operations in its order. The region counts one read + one
// write of C; the operands stream from the caller's buffers.
template <typename T>
void gemm_small(const GemmCall<T>& g, const SmallPlan<T>& plan, const obs::Sinks& sinks) {
  obs::Region region(sinks, obs::Boundary::kSmall);
  if (region) region.describe({}, {.bytes = static_cast<std::uint64_t>(2 * g.m * g.n) * sizeof(T)});
  const BlockSizes& bs = plan.bs;
  const int mr = bs.mr, nr = bs.nr;
  AG_CHECK(mr <= kMaxMr && nr <= kMaxNr);
  // op(B)(p, j) = b[p * rsb + j * csb].
  const index_t rsb = g.trans_b == Trans::NoTrans ? 1 : g.ldb;
  const index_t csb = g.trans_b == Trans::NoTrans ? g.ldb : 1;
  thread_local AlignedBuffer<T> packed_a;  // the packed rows of op(A)

  for (index_t jj = 0; jj < g.n; jj += bs.nc) {
    const index_t nc = std::min(bs.nc, g.n - jj);
    for (index_t kk = 0; kk < g.k; kk += bs.kc) {
      const index_t kc = std::min(bs.kc, g.k - kk);
      const T beta = kk == 0 ? g.beta : T(1);
      for (index_t ii = 0; ii < g.m; ii += bs.mc) {
        const index_t mc = std::min(bs.mc, g.m - ii);
        // Rows [ii, ii + in_place) are read in place, the rest is packed.
        const index_t in_place = g.trans_a == Trans::NoTrans ? mc / mr * mr : 0;
        if (in_place < mc) {
          packed_a.ensure(static_cast<std::size_t>(packed_a_size_t<T>(mc - in_place, kc, mr)));
          pack_a_t(g.trans_a, g.a, g.lda, ii + in_place, kk, mc - in_place, kc, mr,
                   packed_a.data());
        }
        for (index_t j0 = jj; j0 < jj + nc; j0 += nr) {
          const int cols = static_cast<int>(std::min<index_t>(nr, jj + nc - j0));
          const T* b = g.b + kk * rsb + j0 * csb;
          for (index_t i0 = 0; i0 < mc; i0 += mr) {
            const index_t rows = std::min<index_t>(mr, mc - i0);
            const bool in = i0 < in_place;
            const T* a =
                in ? g.a + (ii + i0) + kk * g.lda : packed_a.data() + (i0 - in_place) * kc;
            const index_t lda = in ? g.lda : mr;
            T* c = g.c + (ii + i0) + j0 * g.ldc;
            if (rows == mr && cols == nr) {
              plan.kernel(kc, g.alpha, a, lda, b, rsb, csb, cols, beta, c, g.ldc);
            } else {
              alignas(64) T tile[kMaxMr * kMaxNr];
              plan.kernel(kc, g.alpha, a, lda, b, rsb, csb, cols, T(0), tile, mr);
              merge_edge_tile(rows, index_t{cols}, beta, tile, mr, c, g.ldc);
            }
          }
        }
      }
    }
  }
}

// Column-major blocked driver (Figure 9, pipelined): the (jj, kk) loop
// nest is flattened into a sequence of kc x nc panels of B. With several
// ranks the shared packed-B panel is double-buffered — while ranks
// compute panel p out of buf[p % 2] they first cooperatively pack panel
// p+1 into the other buffer — so only ONE barrier per panel remains on
// the critical path (the classic schedule needed two: packed-before-
// compute and computed-before-repack). One rank packs each panel into a
// single buffer right before computing it, with no pool and no barrier:
// the serial jj -> kk -> ii nest (or takes each panel from a PanelSource,
// as batch tickets do). Within a panel, layer-3 work is claimed
// dynamically from a per-panel atomic ticket counter over the
// PanelSchedule block grid, which falls back to a 2-D (m x n) split when
// there are fewer mc row blocks than ranks. beta rides into GEBP with the
// pc == 0 panels (the first k-panel of each column panel): panels run in
// sequence with a barrier between them, and each block of a panel is
// claimed by exactly one rank, so every C element sees its pc == 0 update
// first and exactly once. No serial sweep over C runs before the panels.
//
// On asymmetric (big.LITTLE) hosts with ARMGEMM_WEIGHTED_SCHEDULE on,
// ticket claiming is heterogeneity-weighted: each panel's ticket range is
// apportioned into contiguous per-rank spans sized by relative core-class
// throughput (PanelSchedule::proportional_spans), each rank drains its
// own span through a per-(panel, rank) cursor and steals from other
// spans when it runs dry. The block grid is identical to the unweighted
// schedule and every ticket still runs exactly once (cursors are
// monotone, fetch_add return values unique, a full failed scan proves
// all spans drained), so results stay bitwise identical — only WHO
// computes WHAT first changes. `mc_class` (tune::per_class_mc) lets a
// slow-class rank additionally sub-block its claimed mc rows to its own
// cache-sized mc, again without touching the grid.
template <typename T>
void gemm_blocked(const GemmCall<T>& g, const GemmPlan<T>& plan, PackBuffers<T>& scratch,
                  ThreadPool* pool, int ranks, const obs::Sinks& sinks,
                  const PanelSource<T>& panel_source) {
  const BlockSizes& bs = plan.bs;

  // Per-rank phase partials, cache-line padded so concurrent accumulation
  // never false-shares; merged into sinks.phases after the join. A lone
  // rank accumulates into sinks.phases directly.
  struct alignas(64) RankPhases {
    obs::CallPhases ph;
  };
  std::vector<RankPhases> rank_phases(
      sinks.phases && ranks > 1 ? static_cast<std::size_t>(ranks) : 0);

  // Panel p is the kc x nc block (jc, pc) = (p / kpanels, p % kpanels) of
  // B: layer 1 (jj) outside, layer 2 (kk) inside.
  struct Panel {
    index_t jj, nc, kk, kc, jc, pc;
  };
  const index_t kpanels = ceil_div(g.k, bs.kc);
  const index_t npanels = ceil_div(g.n, bs.nc) * kpanels;
  const auto panel_at = [&](index_t p) {
    const index_t jc = p / kpanels, pc = p % kpanels;
    const index_t jj = jc * bs.nc, kk = pc * bs.kc;
    return Panel{jj, std::min(bs.nc, g.n - jj), kk, std::min(bs.kc, g.k - kk), jc, pc};
  };
  // Shared claim counters, one per panel; a lone rank walks its tickets in
  // order and needs none.
  std::vector<std::atomic<index_t>> tickets(ranks > 1 ? static_cast<std::size_t>(npanels) : 0);
  for (auto& t : tickets) t.store(0, std::memory_order_relaxed);

  // Heterogeneity-weighted claiming: per-(panel, rank) contiguous ticket
  // spans sized by core-class throughput. Skipped (empty weights) on
  // symmetric hosts, when the knob is off, or when every rank's weight
  // comes out equal — the single shared counter above is cheaper.
  std::vector<double> weights;
  std::vector<index_t> rank_mc;  // per-rank sub-blocking mc (empty: bs.mc)
  if (ranks > 1 && weighted_schedule_enabled()) {
    const Topology& topo = Topology::get();
    if (topo.asymmetric()) {
      weights = topo.rank_weights(ranks);
      bool uniform = true;
      for (const double w : weights)
        if (w != weights.front()) {
          uniform = false;
          break;
        }
      if (uniform) weights.clear();
      if (!plan.mc_class.empty()) {
        rank_mc.resize(static_cast<std::size_t>(ranks), bs.mc);
        for (int r = 0; r < ranks; ++r) {
          const int cls = topo.class_of_rank(r);
          if (cls >= 0 && cls < static_cast<int>(plan.mc_class.size()))
            rank_mc[static_cast<std::size_t>(r)] =
                std::clamp<index_t>(plan.mc_class[static_cast<std::size_t>(cls)],
                                    bs.mr, bs.mc);
        }
      }
    }
  }
  const bool weighted = !weights.empty();
  std::vector<std::vector<PanelSchedule::TicketSpan>> spans;
  std::vector<std::atomic<index_t>> cursors;  // [panel * ranks + rank]
  if (weighted) {
    spans.reserve(static_cast<std::size_t>(npanels));
    cursors = std::vector<std::atomic<index_t>>(static_cast<std::size_t>(npanels) *
                                                static_cast<std::size_t>(ranks));
    for (index_t p = 0; p < npanels; ++p) {
      const PanelSchedule sched(g.m, panel_at(p).nc, bs.mc, bs.nr, ranks);
      spans.push_back(PanelSchedule::proportional_spans(sched.total_blocks(), weights));
      for (int r = 0; r < ranks; ++r)
        cursors[static_cast<std::size_t>(p * ranks + r)].store(
            spans.back()[static_cast<std::size_t>(r)].begin, std::memory_order_relaxed);
    }
  }

  const bool pipelined = ranks > 1 && npanels > 1;
  scratch.reserve(static_cast<std::size_t>(packed_b_size_t<T>(std::min(bs.kc, g.k),
                                                              std::min(bs.nc, g.n), bs.nr)),
                  static_cast<std::size_t>(packed_a_size_t<T>(std::min(bs.mc, g.m),
                                                              std::min(bs.kc, g.k), bs.mr)),
                  ranks, pipelined);
  T* const bbuf[2] = {scratch.packed_b[0].data(), scratch.packed_b[pipelined ? 1 : 0].data()};

  Barrier barrier(ranks);

  const auto run_rank = [&](int rank) {
    obs::Sinks my = sinks;
    my.lane += rank;
    if (my.phases && ranks > 1) my.phases = &rank_phases[static_cast<std::size_t>(rank)].ph;
    double barrier_wait = 0;  // this rank's waits: one telemetry sample per call
    T* const my_packed_a = scratch.packed_a[static_cast<std::size_t>(rank)].data();
    // Sub-blocking granularity for this rank's claimed mc blocks (a
    // LITTLE-class rank re-tiles along m to its own cache-sized mc).
    const index_t my_mc = rank_mc.empty() ? bs.mc : rank_mc[static_cast<std::size_t>(rank)];

    // This rank's share of a panel's slivers; a rank that got none packs
    // and records nothing, so cooperative packing does not inflate the
    // counts.
    const auto pack_panel = [&](const Panel& panel, T* dst) {
      const index_t slivers = ceil_div(panel.nc, static_cast<index_t>(bs.nr));
      const Range bp = partition_range(slivers, ranks, rank, 1);
      if (bp.size() == 0) return;
      obs::Region region(my, obs::Boundary::kPackB);
      if (region)
        region.describe(
            {-1, panel.jc, panel.pc},
            {.bytes = static_cast<std::uint64_t>(bp.size() * bs.nr * panel.kc) * sizeof(T)});
      pack_b_slivers_t(g.trans_b, g.b, g.ldb, panel.kk, panel.jj, panel.kc, panel.nc, bs.nr,
                       bp.begin, bp.end, dst);
    };
    const auto sync = [&] {
      obs::Region region(my, obs::Boundary::kBarrier);
      barrier.arrive_and_wait();
      barrier_wait += region.close().seconds;
    };

    // Pipelined prologue: panel 0 must be fully packed before anyone
    // computes.
    if (ranks > 1) {
      pack_panel(panel_at(0), bbuf[0]);
      sync();
    }
    for (index_t p = 0; p < npanels; ++p) {
      const Panel panel = panel_at(p);
      const T* panel_b = bbuf[p & 1];
      // Overlap: pack the next panel before computing this one, so
      // another rank's leftover compute hides our pack time (and vice
      // versa). A lone rank gets the panel it is about to compute from
      // its source, or packs it.
      if (ranks == 1) {
        const auto pack = [&](T* dst) { pack_panel(panel, dst); };
        const T* fetched =
            panel_source ? panel_source(panel.kk, panel.jj, panel.kc, panel.nc,
                                        packed_b_size_t<T>(panel.kc, panel.nc, bs.nr), pack)
                         : nullptr;
        if (fetched)
          panel_b = fetched;
        else
          pack(bbuf[0]);
      } else if (p + 1 < npanels) {
        pack_panel(panel_at(p + 1), bbuf[(p + 1) & 1]);
      }

      const PanelSchedule sched(g.m, panel.nc, bs.mc, bs.nr, ranks);
      index_t next = 0;  // a lone rank's next ticket

      // Next ticket of panel p for this rank, or -1 when the panel is
      // fully claimed. Unweighted: one shared counter. Weighted: own
      // span first, then steal from the other spans round-robin from
      // rank+1. Cursors are monotone and the load-then-fetch_add race
      // only wastes an increment past `end`, never double-claims.
      const auto claim = [&]() -> index_t {
        if (ranks == 1) return next < sched.total_blocks() ? next++ : -1;
        if (!weighted) {
          const index_t t =
              tickets[static_cast<std::size_t>(p)].fetch_add(1, std::memory_order_relaxed);
          return t < sched.total_blocks() ? t : -1;
        }
        const std::vector<PanelSchedule::TicketSpan>& sp = spans[static_cast<std::size_t>(p)];
        std::atomic<index_t>* const cur = &cursors[static_cast<std::size_t>(p * ranks)];
        {
          const index_t t = cur[rank].fetch_add(1, std::memory_order_relaxed);
          if (t < sp[static_cast<std::size_t>(rank)].end) return t;
        }
        for (int i = 1; i < ranks; ++i) {
          const int v = (rank + i) % ranks;
          const index_t end = sp[static_cast<std::size_t>(v)].end;
          if (cur[v].load(std::memory_order_relaxed) >= end) continue;
          const index_t t = cur[v].fetch_add(1, std::memory_order_relaxed);
          if (t < end) return t;
        }
        return -1;
      };

      index_t packed_ii = -1;   // first row held in my_packed_a
      index_t packed_mc = -1;   // rows held in my_packed_a
      for (;;) {
        const index_t t = claim();
        if (t < 0) break;
        const GemmBlock blk = sched.block(t);
        const index_t ic = blk.ii / bs.mc;
        // Per-class re-tiling: a rank whose class mc is smaller than
        // the grid's walks its claimed block in my_mc-row chunks
        // (each an mr multiple, so the kernel strip boundaries — and
        // the results, bitwise — are those of the whole block).
        for (index_t sub = 0; sub < blk.mc; sub += my_mc) {
          const index_t sub_ii = blk.ii + sub;
          const index_t sub_mc = std::min(my_mc, blk.mc - sub);
          if (sub_ii != packed_ii || sub_mc != packed_mc) {
            // Counts the packed buffer's bytes, padding included.
            obs::Region region(my, obs::Boundary::kPackA);
            if (region)
              region.describe({ic, panel.jc, panel.pc},
                              {.bytes = static_cast<std::uint64_t>(packed_a_size_t<T>(
                                            sub_mc, panel.kc, bs.mr)) *
                                        sizeof(T)});
            pack_a_t(g.trans_a, g.a, g.lda, sub_ii, panel.kk, sub_mc, panel.kc, bs.mr,
                     my_packed_a);
            packed_ii = sub_ii;
            packed_mc = sub_mc;
          }
          // Counts one read + write of the C block and its
          // ceil(mc/mr)*ceil(nc/nr) register-kernel invocations (edge tiles
          // included).
          obs::Region region(my, obs::Boundary::kGebp);
          if (region)
            region.describe(
                {ic, panel.jc, panel.pc},
                {.bytes = static_cast<std::uint64_t>(2 * sub_mc * blk.nb) * sizeof(T),
                 .kernels = static_cast<std::uint64_t>(ceil_div(sub_mc, index_t{bs.mr}) *
                                                       ceil_div(blk.nb, index_t{bs.nr}))});
          gebp_t<T>(sub_mc, blk.nb, panel.kc, g.alpha, my_packed_a,
                    panel_b + blk.sliver0 * panel.kc * bs.nr, panel.pc == 0 ? g.beta : T(1),
                    g.c + sub_ii + (panel.jj + blk.jb) * g.ldc, g.ldc, plan.kernel, bs.mr,
                    bs.nr);
        }
      }
      // One barrier per panel: it certifies both "panel p fully
      // computed" (its buffer may be repacked two panels on) and
      // "panel p+1 fully packed" (computable next iteration). After
      // the last panel the pool join itself is the sync point.
      if (ranks > 1 && p + 1 < npanels) sync();
    }
    if (ranks > 1 && sinks.telemetry) obs::telemetry_record_barrier_wait(barrier_wait);
  };
  if (ranks == 1)
    run_rank(0);
  else
    pool->run(run_rank, ranks);

  if (sinks.phases) {
    for (const RankPhases& rp : rank_phases) sinks.phases->merge(rp.ph);
    sinks.phases->workers = ranks;
  }
}

#define AG_INSTANTIATE_DRIVER(T)                                                            \
  template void scale_panel(T*, index_t, index_t, index_t, T);                              \
  template void gemm_small(const GemmCall<T>&, const SmallPlan<T>&, const obs::Sinks&);     \
  template void gemm_blocked(const GemmCall<T>&, const GemmPlan<T>&, PackBuffers<T>&,       \
                             ThreadPool*, int, const obs::Sinks&, const PanelSource<T>&);
AG_INSTANTIATE_DRIVER(double)
AG_INSTANTIATE_DRIVER(float)
#undef AG_INSTANTIATE_DRIVER

}  // namespace detail

namespace {

detail::RunInfo run_dgemm(const detail::GemmCall<double>& g, const Context& ctx,
                          const obs::Sinks& sinks) {
  // The blocked path runs the context's kernel + blocking, or — for a
  // tunable context — whatever the autotuner resolved for this
  // (precision, shape-class) key.
  const auto resolve = [&ctx](index_t m, index_t n, index_t k) {
    ExecConfig cfg = resolve_exec_config(ctx, m, n, k);
    return detail::GemmPlan<double>{cfg.kernel->fn, cfg.bs, std::move(cfg.mc_class)};
  };
  return detail::run_gemm(g, ctx, detail::small_plan(ctx), sinks, resolve);
}

}  // namespace

void dgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, double alpha, const double* a, std::int64_t lda, const double* b,
           std::int64_t ldb, double beta, double* c, std::int64_t ldc, const Context& ctx) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;

  if (layout == Layout::RowMajor) {
    // Row-major C = op(A) op(B) is column-major C^T = op(B)^T op(A)^T.
    // The recursive call performs (and records) the actual work.
    dgemm(Layout::ColMajor, trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta, c, ldc,
          ctx);
    return;
  }

  const detail::GemmCall<double> g{trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                                   ldc};
  const bool computed = k != 0 && alpha != 0.0;
  const bool telemetry = obs::telemetry_active();
  // Stack-owned phase timeline; the driver's regions fill it only when
  // attribution is on.
  obs::CallPhases call_phases;
  const obs::Sinks sinks{ctx.stats(),
                         telemetry && obs::telemetry_phases_active() ? &call_phases : nullptr,
                         telemetry};
  obs::Region call(sinks, obs::Boundary::kCall);
  if (call && computed)
    call.describe({}, {.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                                static_cast<double>(k)});
  if (!computed) {
    obs::Region epilogue(sinks, obs::Boundary::kEpilogue);
    detail::scale_panel(c, ldc, m, n, beta);
    return;
  }
  const detail::RunInfo run = run_dgemm(g, ctx, sinks);
  const obs::Interval t = call.close();
  if (telemetry)
    obs::telemetry_record_call(m, n, k, run.threads, run.schedule, t.seconds, run.bs, t.end,
                               sinks.phases);
}

}  // namespace ag
