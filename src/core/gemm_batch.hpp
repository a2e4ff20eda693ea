// Batched DGEMM: many independent C_i := alpha_i op(A_i) op(B_i) + beta_i C_i
// problems submitted as one call.
//
// Execution model (the serving-runtime counterpart of the paper's
// single-call Figure 9 parallelization): entries are decomposed into
// tickets — one ticket per small entry (the unpacked small path), a
// shape-dependent number of mc-aligned row-range tickets per blocked
// entry — and all tickets of the batch are drained by the process-wide
// PersistentPool (threading/persistent_pool). No per-entry fork/join:
// a batch of 64 small GEMMs costs one submission, not 64 pool gangs.
//
// Same-B sharing: blocked tickets obtain packed B panels from the keyed
// PanelCache (core/panel_cache), so entries that multiply different A
// against one B (and row-range tickets of a single large entry) pack each
// kc x nc panel once per batch call.
//
// Determinism: the ticket decomposition is a pure function of each
// entry's shape and the context block sizes — never of the worker count —
// and every ticket runs the one-rank dgemm driver (core/gemm.cpp) over its
// disjoint, mc-aligned C rows: the serial jj -> kk -> ii loop order, beta
// applied at kk == 0. Each C element is therefore accumulated in one fixed
// order regardless of pool size or scheduling — the order of a one-thread
// dgemm — giving bitwise-identical results at any thread count.
#pragma once

#include <cstdint>

#include "blas/gemm_types.hpp"
#include "core/context.hpp"

namespace ag {

/// One problem of a batch. Defaults describe a degenerate empty entry;
/// fill every field you use. All entries share the batch call's layout.
struct GemmBatchEntry {
  Trans trans_a = Trans::NoTrans;
  Trans trans_b = Trans::NoTrans;
  index_t m = 0, n = 0, k = 0;
  double alpha = 1.0;
  const double* a = nullptr;
  index_t lda = 1;
  const double* b = nullptr;
  index_t ldb = 1;
  double beta = 0.0;
  double* c = nullptr;
  index_t ldc = 1;
};

/// Runs `count` independent GEMMs. Entries must not alias each other's C
/// (A/B operands may be shared freely — that is the cached-panel sweet
/// spot). Validates every entry before any work starts. Uses the
/// process-wide persistent pool sized to ctx.threads() - 1 workers (the
/// caller participates).
void dgemm_batch(Layout layout, const GemmBatchEntry* entries, index_t count,
                 const Context& ctx = Context::default_context());

/// Uniform batch: entry i uses a + i*stride_a, b + i*stride_b,
/// c + i*stride_c with shared shape/scalars. stride_a or stride_b of 0
/// shares that operand across all entries; stride_c must cover a full C
/// (>= ldc * columns-of-storage) so the C panels cannot overlap.
void dgemm_strided_batch(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n,
                         index_t k, double alpha, const double* a, index_t lda,
                         index_t stride_a, const double* b, index_t ldb, index_t stride_b,
                         double beta, double* c, index_t ldc, index_t stride_c, index_t count,
                         const Context& ctx = Context::default_context());

}  // namespace ag
