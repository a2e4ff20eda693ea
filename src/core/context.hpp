// Execution context for the optimized DGEMM: kernel choice, block sizes,
// thread count, reusable packing scratch, and the (lazily created,
// persistent) thread pool. sgemm keeps one per caller thread for its
// pool and scratch.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "core/block_sizes.hpp"
#include "kernels/microkernel.hpp"
#include "obs/gemm_stats.hpp"
#include "threading/thread_pool.hpp"

namespace ag {

/// Packing buffers of element type T for one in-flight GEMM: a
/// double-buffered shared B panel (the parallel driver packs panel pc+1
/// while computing panel pc) and one A block per rank. Buffers grow
/// monotonically via ensure(), so steady-state repeated calls allocate
/// nothing.
template <typename T>
struct PackBuffers {
  AlignedBuffer<T> packed_b[2];
  std::vector<AlignedBuffer<T>> packed_a;

  /// Grows the buffers to hold a `b_elems`-element B panel (x2 when
  /// `double_buffer`) and `a_elems`-element A blocks for `ranks` ranks.
  void reserve(std::size_t b_elems, std::size_t a_elems, int ranks, bool double_buffer) {
    packed_b[0].ensure(b_elems);
    if (double_buffer) packed_b[1].ensure(b_elems);
    if (packed_a.size() < static_cast<std::size_t>(ranks))
      packed_a.resize(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) packed_a[static_cast<std::size_t>(r)].ensure(a_elems);
  }
};

/// One context's reusable scratch: dgemm packs into `f64`, sgemm into
/// `f32`. The buffers of a precision a context never runs stay empty.
struct GemmScratch {
  PackBuffers<double> f64;
  PackBuffers<float> f32;

  template <typename T>
  PackBuffers<T>& buffers() {
    if constexpr (std::is_same_v<T, float>)
      return f32;
    else
      return f64;
  }
};

// Free list of GemmScratch objects (defined in context.cpp).
struct ScratchPool;

class Context {
 public:
  /// Serial context with the best available 8x6 kernel and host defaults.
  Context();

  /// `kernel_name` as in microkernel_by_name (e.g. "avx2_8x6");
  /// block sizes default to default_block_sizes(shape, threads).
  Context(const std::string& kernel_name, int threads);
  Context(KernelShape shape, int threads);

  Context(Context&&) noexcept = default;
  Context& operator=(Context&&) noexcept = default;

  const Microkernel& kernel() const { return *kernel_; }
  const BlockSizes& block_sizes() const { return block_sizes_; }
  int threads() const { return threads_; }

  Context& set_kernel(const std::string& kernel_name);
  Context& set_block_sizes(const BlockSizes& bs);
  Context& set_threads(int threads);

  /// Opts this context into the closed-loop autotuner (src/tune): each
  /// call resolves its kernel shape and cache blocking per (precision,
  /// shape-class) key instead of using the context's fixed configuration.
  /// Off by default — explicitly constructed contexts keep exactly what
  /// they were configured with (the tuner counts their calls under the
  /// "pinned" source). set_kernel / set_block_sizes also clear the flag:
  /// an explicit configuration is a pin. The C API's thread-local
  /// contexts and default_context() are tunable.
  Context& set_tunable(bool tunable) {
    tunable_ = tunable;
    return *this;
  }
  bool tunable() const { return tunable_; }

  /// Attaches a per-layer stats collector (non-owning; pass nullptr to
  /// detach). The collector must outlive every dgemm call made with this
  /// context. In an ARMGEMM_STATS_DISABLED build the attachment is kept
  /// but stats() always yields nullptr, so no counters are recorded.
  Context& set_stats(obs::GemmStats* stats) {
    stats_ = stats;
    return *this;
  }

  /// Collector the driver records into, or nullptr when disabled. Folds
  /// to a compile-time nullptr when stats are compiled out, making every
  /// `if (ctx.stats())` hook dead code.
  obs::GemmStats* stats() const {
#ifdef ARMGEMM_STATS_DISABLED
    return nullptr;
#else
    return stats_;
#endif
  }

  /// Checked-out GemmScratch; returns it to the context's free list on
  /// destruction. See acquire_scratch().
  class ScratchLease {
   public:
    ScratchLease(ScratchLease&&) noexcept = default;
    ScratchLease& operator=(ScratchLease&&) noexcept = default;
    ~ScratchLease();

    GemmScratch& operator*() const { return *scratch_; }
    GemmScratch* operator->() const { return scratch_.get(); }

   private:
    friend class Context;
    ScratchLease(std::shared_ptr<ScratchPool> pool, std::unique_ptr<GemmScratch> scratch,
                 int node)
        : pool_(std::move(pool)), scratch_(std::move(scratch)), node_(node) {}

    std::shared_ptr<ScratchPool> pool_;
    std::unique_ptr<GemmScratch> scratch_;
    int node_ = 0;  // NUMA free list this lease drains and refills
  };

  /// Borrows a reusable packing-scratch object. Buffers grow monotonically
  /// and persist across calls, so the steady-state hot path allocates
  /// nothing. Thread-safe: concurrent dgemm calls sharing one const
  /// Context (e.g. the capi's thread_local context pattern, or tests that
  /// share a serial context across host threads) each get their own
  /// scratch; the free list hands the warmest one back first. On
  /// multi-node hosts the free list is per NUMA node (keyed by the
  /// caller's current node), so a scratch whose pages were first-touched
  /// on one node is never handed to a caller on another.
  ScratchLease acquire_scratch() const;

  /// Pool shared by every dgemm call made with this context; created on
  /// first parallel use.
  ThreadPool& pool() const;

  /// Process-wide default used by the two-argument dgemm overload.
  static Context& default_context();

 private:
  const Microkernel* kernel_;
  BlockSizes block_sizes_;
  int threads_;
  obs::GemmStats* stats_ = nullptr;
  bool tunable_ = false;
  mutable std::unique_ptr<ThreadPool> pool_;
  // shared_ptr so outstanding leases keep the free list alive across
  // Context moves and destruction.
  mutable std::shared_ptr<ScratchPool> scratch_pool_;
};

}  // namespace ag
