#include "core/gemm_batch.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <vector>

#include "blas/reference_gemm.hpp"
#include "common/check.hpp"
#include "common/knobs.hpp"
#include "common/math_util.hpp"
#include "common/timer.hpp"
#include "core/gemm_internal.hpp"
#include "core/panel_cache.hpp"
#include "core/tuning.hpp"
#include "obs/region.hpp"
#include "obs/telemetry.hpp"
#include "threading/persistent_pool.hpp"
#include "threading/thread_pool.hpp"
#include "threading/topology.hpp"

namespace ag {
namespace {

/// Cap on row-range tickets per blocked entry. A fixed shape-independent
/// cap (rather than the worker count) keeps the decomposition — and hence
/// the accumulation order — identical at every thread count, which the
/// bitwise-determinism guarantee requires. Eight tickets saturate the
/// target 8-core part for a single-entry batch; multi-entry batches get
/// their parallelism across entries anyway.
constexpr index_t kMaxTicketsPerEntry = 8;

enum class EntryKind { kScale, kSmall, kBlocked };

struct EntryState {
  GemmBatchEntry e;  // normalized to column-major
  EntryKind kind = EntryKind::kBlocked;
  // Per-entry execution configuration (kBlocked only): the context's
  // kernel + blocking, or the autotuner's pick for this entry's
  // shape class when the context is tunable.
  detail::GemmPlan<double> plan;
  int tickets = 0;
  int shape_class = -1;  // batch ShapeClass index, for cache attribution
  std::atomic<index_t> remaining{0};
  // Panel-cache outcomes summed over this entry's tickets (read by the
  // last finisher for the telemetry record).
  std::atomic<std::uint64_t> cache_hits{0}, cache_misses{0};
  // Phase nanoseconds summed over this entry's tickets; the last finisher
  // folds them into the CallPhases handed to telemetry.
  std::array<std::atomic<std::uint64_t>, obs::kPhaseCount> phase_ns{};
  // Written by the runner of this entry's local ticket 0; read by the
  // runner of the last-finishing ticket (ordered by the release sequence
  // on `remaining`).
  double start_seconds = 0;
  double queue_wait_seconds = 0;
};

struct Ticket {
  EntryState* entry;
  int local;       // index within the entry's tickets
  index_t row0, rows;  // row range (kBlocked only)
};

detail::GemmCall<double> entry_call(const GemmBatchEntry& e) {
  return {e.trans_a, e.trans_b, e.m, e.n, e.k, e.alpha, e.a, e.lda, e.b, e.ldb, e.beta, e.c,
          e.ldc};
}

struct BatchSource final : TaskSource {
  const Context* ctx = nullptr;
  obs::Tracer* tracer = nullptr;
  std::uint64_t epoch = 0;
  bool telemetry = false;
  bool phases = false;  // phase attribution on for this submission
  std::vector<Ticket> tickets;

  /// Lane of a runner's trace spans, stats slot and PMU rank: lane 0 is
  /// the submitting/helping caller, pool worker r lands on lane r + 1
  /// (dgemm_batch names them).
  static int trace_lane(int runner_rank) { return runner_rank + 1; }

  /// One blocked ticket: the one-rank driver over the entry's C rows
  /// [row0, row0 + rows). row0 sits on an mc boundary, so the slice's
  /// block grid, kc order and output bits are those of the whole entry.
  /// B panels come through the panel cache; when it is off or full the
  /// driver packs them privately (bitwise-identical panels).
  void run_blocked(const EntryState& st, const Ticket& tk, int runner_rank,
                   const obs::Sinks& sinks, std::uint64_t* hits, std::uint64_t* misses) const {
    const GemmBatchEntry& e = st.e;
    detail::GemmCall<double> g = entry_call(e);
    g.m = tk.rows;
    g.a += e.trans_a == Trans::NoTrans ? tk.row0 : tk.row0 * e.lda;
    g.c += tk.row0;
    // NUMA node of this ticket's runner: pool workers map through their
    // rank, helping/submitting callers (rank -1) through the cpu they
    // happen to run on. Node 0 disables replication keys.
    int node = 0;
    const Topology& topo = Topology::get();
    if (topo.num_nodes() > 1)
      node = runner_rank >= 0 ? topo.node_of_rank(runner_rank) : topo.current_node();

    std::shared_ptr<const PackedPanel> held;  // keeps the panel in use alive
    const auto fetch = [&](index_t kk, index_t jj, index_t kc, index_t nc, index_t elems,
                           const std::function<void(double*)>& pack) -> const double* {
      PanelKey key;
      key.b = e.b;
      key.ldb = e.ldb;
      key.trans = e.trans_b;
      key.kk = kk;
      key.jj = jj;
      key.kc = kc;
      key.nc = nc;
      key.nr = st.plan.bs.nr;
      // NUMA replication: panels past the ARMGEMM_PANEL_REPLICATE_KB
      // threshold are keyed by the consuming node, so each node's first
      // requester packs (first-touches) a node-local copy. Small panels
      // stay shared — one copy fits in LLC and replication would only
      // dilute the cache budget.
      if (node > 0 && elems * static_cast<index_t>(sizeof(double)) >= panel_replicate_kb() * 1024)
        key.node = node;
      key.epoch = epoch;
      PanelCache::Outcome outcome = PanelCache::Outcome::kBypass;
      held = PanelCache::instance().get_or_pack(
          key, elems, pack, st.shape_class, &outcome,
          sinks.phases ? sinks.phases->slot(obs::Phase::kCacheStall) : nullptr);
      if (outcome == PanelCache::Outcome::kHit) ++*hits;
      if (outcome == PanelCache::Outcome::kMiss) ++*misses;
      return held ? held->data() : nullptr;
    };
    Context::ScratchLease lease = ctx->acquire_scratch();
    detail::gemm_blocked<double>(g, st.plan, lease->f64, nullptr, 1, sinks, fetch);
  }

  void run_ticket(std::int64_t t, const TicketInfo& info) override {
    const Ticket& tk = tickets[static_cast<std::size_t>(t)];
    EntryState& st = *tk.entry;
    if (tk.local == 0) {
      st.start_seconds = now_seconds();
      st.queue_wait_seconds = info.queue_wait_seconds;
    }
    const GemmBatchEntry& e = st.e;
    std::uint64_t hits = 0, misses = 0;
    obs::CallPhases local_phases;
    const obs::Sinks sinks{ctx->stats(), phases ? &local_phases : nullptr, false,
                           trace_lane(info.runner_rank)};
    obs::Region span(sinks, st.kind == EntryKind::kScale   ? obs::Boundary::kTicketScale
                            : st.kind == EntryKind::kSmall ? obs::Boundary::kTicketSmall
                                                           : obs::Boundary::kTicketBlocked);
    switch (st.kind) {
      case EntryKind::kScale: {
        obs::Region epilogue(sinks, obs::Boundary::kEpilogue);
        detail::scale_panel(e.c, e.ldc, e.m, e.n, e.beta);
        break;
      }
      case EntryKind::kSmall:
        detail::gemm_small(entry_call(e), detail::small_plan(*ctx), sinks);
        break;
      case EntryKind::kBlocked:
        run_blocked(st, tk, info.runner_rank, sinks, &hits, &misses);
        break;
    }
    if (span) {
      obs::BlockArgs args;
      args.with("ticket", t)
          .with("wait_us", static_cast<std::int64_t>(info.queue_wait_seconds * 1e6))
          .with("stolen", info.stolen ? 1 : 0)
          .with("cache_hits", static_cast<std::int64_t>(hits))
          .with("cache_misses", static_cast<std::int64_t>(misses));
      if (info.shard >= 0) args.with("shard", info.shard);
      span.describe(args);
    }
    const obs::Interval ticket = span.close();
    // Queue depth right after this ticket's pop, at the span's start;
    // inline-overflow tickets never entered the queue, so they carry no
    // depth sample.
    if (tracer && !info.inline_overflow)
      tracer->counter("queue_depth", ticket.end - ticket.seconds,
                      static_cast<double>(info.queue_depth));
    if (sinks.phases) {
      for (int p = 0; p < obs::kPhaseCount; ++p) {
        const double s = local_phases.seconds[static_cast<std::size_t>(p)];
        if (s > 0)
          st.phase_ns[static_cast<std::size_t>(p)].fetch_add(
              static_cast<std::uint64_t>(s * 1e9), std::memory_order_relaxed);
      }
    }
    if (hits) st.cache_hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses) st.cache_misses.fetch_add(misses, std::memory_order_relaxed);
    if (st.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 && telemetry &&
        st.kind != EntryKind::kScale) {
      obs::CallPhases entry_phases;
      obs::CallPhases* entry_ph = nullptr;
      if (phases) {
        for (int p = 0; p < obs::kPhaseCount; ++p)
          entry_phases.seconds[static_cast<std::size_t>(p)] =
              static_cast<double>(st.phase_ns[static_cast<std::size_t>(p)].load(
                  std::memory_order_relaxed)) *
              1e-9;
        // Per-rank sums divide by the decomposition width on attribution;
        // the queue wait is a per-entry wall delay, so pre-scale it to
        // survive that division exactly.
        entry_phases.workers = st.tickets;
        entry_phases.add(obs::Phase::kQueueWait,
                         st.queue_wait_seconds * st.tickets);
        entry_ph = &entry_phases;
      }
      obs::telemetry_record_batch_entry(
          e.m, e.n, e.k, ctx->threads(), now_seconds() - st.start_seconds,
          st.queue_wait_seconds, st.cache_hits.load(std::memory_order_relaxed),
          st.cache_misses.load(std::memory_order_relaxed), entry_ph);
    }
  }
};

/// Number of row-range tickets for a blocked entry: one per mc block up
/// to the fixed cap. Pure function of shape + blocking (determinism).
index_t blocked_tickets(index_t m, index_t mc) {
  return std::min<index_t>(ceil_div(m, mc), kMaxTicketsPerEntry);
}

}  // namespace

void dgemm_batch(Layout layout, const GemmBatchEntry* entries, index_t count,
                 const Context& ctx) {
  AG_CHECK_MSG(count >= 0, "negative batch count " << count);
  if (count == 0) return;
  AG_CHECK_MSG(entries != nullptr, "null entries array with count " << count);

  // Validate everything up front: a bad entry must fail the whole call
  // before any C has been touched.
  for (index_t i = 0; i < count; ++i) {
    const GemmBatchEntry& e = entries[i];
    validate_gemm_args(layout, e.trans_a, e.trans_b, e.m, e.n, e.k, e.a, e.lda, e.b, e.ldb,
                       e.c, e.ldc);
  }

  std::deque<EntryState> states;  // deque: EntryState holds an atomic
  for (index_t i = 0; i < count; ++i) {
    GemmBatchEntry e = entries[i];
    if (layout == Layout::RowMajor) {
      // Row-major C = op(A) op(B) is column-major C^T = op(B)^T op(A)^T.
      std::swap(e.m, e.n);
      std::swap(e.a, e.b);
      std::swap(e.lda, e.ldb);
      std::swap(e.trans_a, e.trans_b);
    }
    if (e.m == 0 || e.n == 0) continue;  // nothing to do, not even beta
    EntryState& st = states.emplace_back();
    st.e = e;
    if (e.k == 0 || e.alpha == 0.0) {
      st.kind = EntryKind::kScale;
      st.tickets = 1;
    } else if (use_small_gemm(e.m, e.n, e.k)) {
      st.kind = EntryKind::kSmall;
      st.tickets = 1;
    } else {
      st.kind = EntryKind::kBlocked;
      // Resolve per entry: different shape classes in one batch may run
      // with different tuned blockings. A pinned context resolves to its
      // own configuration for every entry.
      const ExecConfig cfg = resolve_exec_config(ctx, e.m, e.n, e.k);
      st.plan = {cfg.kernel->fn, cfg.bs, {}};
      st.tickets = static_cast<int>(blocked_tickets(e.m, st.plan.bs.mc));
    }
    // Cache hits/misses are attributed to the batch shape class (same
    // class telemetry_record_batch_entry files the latency under).
    obs::ShapeClass sc = obs::ShapeClass::classify(e.m, e.n, e.k);
    sc.kind = obs::ShapeKind::kBatch;
    st.shape_class = sc.index();
    st.remaining.store(st.tickets, std::memory_order_relaxed);
  }
  if (states.empty()) return;

  BatchSource src;
  src.ctx = &ctx;
  // New epoch per batch call: B may have been mutated or re-used at the
  // same address since the previous call, so no panel packed before this
  // point may be served (the aliasing hazard).
  src.epoch = PanelCache::instance().begin_epoch();
  src.telemetry = obs::telemetry_active();
  src.phases = obs::telemetry_phases_active();
  src.tracer = ctx.stats() ? ctx.stats()->tracer() : nullptr;
  if (src.tracer) {
    // Label the scheduling timeline: lane 0 is the submitting caller,
    // lanes 1..N are the persistent-pool workers. The pool is grow-only
    // and shared across contexts, so name every live worker — a worker
    // another caller spun up can still steal this submission's tickets.
    src.tracer->set_lane_name(0, "caller");
    const int live = PersistentPool::instance().workers();
    for (int r = 0; r < std::max(live, ctx.threads() - 1); ++r)
      src.tracer->set_lane_name(BatchSource::trace_lane(r),
                                "armgemm-pw" + std::to_string(r));
  }
  for (EntryState& st : states) {
    if (st.kind != EntryKind::kBlocked) {
      src.tickets.push_back({&st, 0, 0, st.e.m});
      continue;
    }
    for (int s = 0; s < st.tickets; ++s) {
      const Range r = partition_range(st.e.m, st.tickets, s, st.plan.bs.mc);
      if (r.size() == 0) continue;  // cap > blocks cannot happen, but be safe
      src.tickets.push_back({&st, s, r.begin, r.size()});
    }
  }

  PersistentPool& pool = PersistentPool::instance();
  pool.ensure_workers(ctx.threads() - 1);
  pool.execute(src, static_cast<std::int64_t>(src.tickets.size()));
}

void dgemm_strided_batch(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n,
                         index_t k, double alpha, const double* a, index_t lda,
                         index_t stride_a, const double* b, index_t ldb, index_t stride_b,
                         double beta, double* c, index_t ldc, index_t stride_c, index_t count,
                         const Context& ctx) {
  AG_CHECK_MSG(count >= 0, "negative batch count " << count);
  if (count == 0 || m == 0 || n == 0) return;
  AG_CHECK_MSG(stride_a >= 0 && stride_b >= 0 && stride_c >= 0,
               "negative stride: a=" << stride_a << " b=" << stride_b << " c=" << stride_c);
  // C panels must be disjoint; a full C occupies ldc * (storage columns).
  const index_t c_span = ldc * (layout == Layout::ColMajor ? n : m);
  AG_CHECK_MSG(count == 1 || stride_c >= c_span,
               "stride_c " << stride_c << " overlaps C panels (need >= " << c_span << ")");

  std::vector<GemmBatchEntry> entries(static_cast<std::size_t>(count));
  for (index_t i = 0; i < count; ++i) {
    GemmBatchEntry& e = entries[static_cast<std::size_t>(i)];
    e.trans_a = trans_a;
    e.trans_b = trans_b;
    e.m = m;
    e.n = n;
    e.k = k;
    e.alpha = alpha;
    e.a = a + i * stride_a;
    e.lda = lda;
    e.b = b + i * stride_b;
    e.ldb = ldb;
    e.beta = beta;
    e.c = c + i * stride_c;
    e.ldc = ldc;
  }
  dgemm_batch(layout, entries.data(), count, ctx);
}

}  // namespace ag
