#include "sim/timing.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "isa/kernel_generator.hpp"
#include "model/cache_blocking.hpp"

namespace ag::sim {
namespace {

using ag::index_t;

double even_shape_ceiling(const model::MachineConfig& machine, ag::KernelShape shape,
                          const TimingOptions& opts) {
  isa::KernelGenOptions gen;
  gen.rotate = opts.rotate;
  gen.schedule_loads = opts.schedule_loads;
  gen.prefetch = opts.prefetch;
  const isa::GeneratedKernel gk = isa::generate_register_kernel(shape, machine, gen);
  PipelineConfig pipe = opts.pipeline;
  // Without rotation the kernel leans on the core's scarce rename
  // registers; model that regime as rename-exhausted (the paper observes
  // the X-Gene has fewer physical registers than x86, Section IV-A).
  if (!opts.rotate) pipe.rename = false;
  const PipelineResult r = simulate_program(gk.body, 64, pipe);
  return r.efficiency(pipe.fma_cycles);
}

double odd_shape_ceiling(const model::MachineConfig& machine, ag::KernelShape shape,
                         const TimingOptions& opts) {
  // Odd shapes cannot use fmla-by-lane pairs cleanly: per rank-1 update,
  // ceil(mr*nr/2) fmla and ceil((mr+nr)/2) loads, with the half-empty
  // vector ops wasting lanes (the mr*nr / (2*fmlas) utilisation factor).
  const int fmlas = (shape.mr * shape.nr + 1) / 2;
  const int ldrs = (shape.mr + shape.nr + 1) / 2;
  (void)machine;
  return simulate_ldr_fmla_ratio(ldrs, fmlas, opts.pipeline) *
         (static_cast<double>(shape.mr * shape.nr) / (2.0 * fmlas));
}

}  // namespace

double kernel_efficiency_ceiling(const model::MachineConfig& machine, ag::KernelShape shape,
                                 const TimingOptions& opts) {
  if (shape.mr % 2 == 0 && shape.nr % 2 == 0)
    return even_shape_ceiling(machine, shape, opts);
  return odd_shape_ceiling(machine, shape, opts);
}

DgemmEstimate estimate_dgemm(const model::MachineConfig& machine, const BlockSizes& blocks,
                             std::int64_t size, int threads, const TimingOptions& opts) {
  return estimate_dgemm_mnk(machine, blocks, size, size, size, threads, opts);
}

DgemmEstimate estimate_dgemm_mnk(const model::MachineConfig& machine, const BlockSizes& blocks,
                                 std::int64_t m, std::int64_t n, std::int64_t k, int threads,
                                 const TimingOptions& opts) {
  blocks.validate();
  AG_CHECK(threads >= 1 && threads <= machine.cores);
  AG_CHECK(m > 0 && n > 0 && k > 0);
  const int es = machine.element_bytes;
  const int mr = blocks.mr, nr = blocks.nr;
  const index_t kc = std::min<index_t>(blocks.kc, k);
  const index_t mc = std::min<index_t>(blocks.mc, m);
  const index_t nc = std::min<index_t>(blocks.nc, n);

  DgemmEstimate est;
  est.kernel_ceiling = opts.ceiling_override > 0
                           ? opts.ceiling_override
                           : kernel_efficiency_ceiling(machine, {mr, nr}, opts);

  // --- Residency predicates (Eqs. 15/17/18 and their threaded forms):
  // the resident block and the stream passing through it must split the
  // cache's ways — some k ways absorb the stream, the remaining assoc-k
  // hold the block.
  auto ways_split = [](double resident_bytes, double stream_bytes,
                       const model::CacheGeometry& g) {
    const double way = static_cast<double>(g.way_bytes());
    for (int w = 1; w < g.associativity; ++w) {
      if (stream_bytes <= w * way && resident_bytes <= (g.associativity - w) * way)
        return true;
    }
    return false;
  };
  const int share2 = model::threads_per_module(machine, threads);
  const bool b_sliver_in_l1 = ways_split(static_cast<double>(kc) * nr * es,
                                         static_cast<double>(mr) * (nr + 2) * es, machine.l1d);
  const bool a_block_in_l2 =
      ways_split(static_cast<double>(share2) * mc * kc * es,
                 static_cast<double>(share2) * kc * nr * es, machine.l2);
  const bool b_panel_in_l3 =
      ways_split(static_cast<double>(kc) * nc * es,
                 static_cast<double>(threads) * mc * kc * es, machine.l3);

  // --- Register-kernel cycles per rank-1 update.
  const double fma_per_update = mr * nr / 2.0;
  double cycles_per_update =
      fma_per_update * opts.pipeline.fma_cycles / est.kernel_ceiling +
      opts.loop_overhead_cycles;
  // Residency violations turn L1/L2 hits into slower streams.
  if (!b_sliver_in_l1) cycles_per_update += nr * opts.l2_word_cycles;
  if (!a_block_in_l2) cycles_per_update += mr * opts.l3_word_cycles;
  if (!b_panel_in_l3) cycles_per_update += nr * opts.mem_word_cycles;

  // --- Work distribution: thread shares of M are mc-aligned; the critical
  // path is the largest share (load imbalance at small M).
  const index_t blocks_m = ceil_div(m, mc);
  const index_t my_blocks = ceil_div(blocks_m, static_cast<index_t>(threads));
  const index_t m_thread = std::min<index_t>(my_blocks * mc, m);

  const double tiles_m = static_cast<double>(ceil_div(m_thread, static_cast<index_t>(mr)));
  const double tiles_n = static_cast<double>(ceil_div(n, static_cast<index_t>(nr)));
  const double k_passes = static_cast<double>(ceil_div(k, kc));
  const double n_passes = static_cast<double>(ceil_div(n, nc));

  est.kernel_cycles = tiles_m * tiles_n * static_cast<double>(k) * cycles_per_update;

  // --- C updates: once per tile per kc pass; loads cannot overlap
  // (Section IV-B), and the tile usually misses the L1 for large C. The
  // epilogue executes one ldr + fmla + str triple per C register pair
  // (mr*nr/2 of them — see GeneratedKernel::epilogue).
  const double c_tiles = tiles_m * tiles_n * k_passes;
  const double c_lines = std::ceil(static_cast<double>(mr) * es / 64.0) * nr;
  const double epilogue_port = fma_per_update * (opts.pipeline.ldr_port +
                                                 opts.pipeline.fmla_port +
                                                 opts.pipeline.str_port);
  est.c_update_cycles = c_tiles * (epilogue_port + c_lines * opts.c_line_cycles);

  // --- Packing: A is packed per (block, kc-pass, nc-pass); B once per
  // (kc-pass, nc-pass), split across threads.
  est.pack_cycles =
      static_cast<double>(m_thread) * static_cast<double>(k) * n_passes *
          opts.pack_a_word_cycles +
      static_cast<double>(k) * static_cast<double>(n) / threads * opts.pack_b_word_cycles;

  // --- Synchronisation: two barriers per (kc, nc) panel (Figure 9).
  est.sync_cycles = threads > 1 ? 2.0 * k_passes * n_passes * opts.barrier_cycles : 0.0;

  // --- Chip-level DRAM bound (overlappable with compute; the slower of
  // the two wins). A streams once per nc pass, B once, C twice per kc pass.
  const double dram_bytes =
      static_cast<double>(m) * static_cast<double>(k) * es * n_passes +
      static_cast<double>(k) * static_cast<double>(n) * es +
      2.0 * static_cast<double>(m) * static_cast<double>(n) * es * k_passes;
  const double mem_bw_bytes_per_cycle = 16.0;  // chip-wide, calibrated
  est.dram_bound_cycles = dram_bytes / mem_bw_bytes_per_cycle;

  const double thread_cycles =
      est.kernel_cycles + est.c_update_cycles + est.pack_cycles + est.sync_cycles;
  const double total_cycles = std::max(thread_cycles, est.dram_bound_cycles);

  est.seconds = total_cycles / (machine.freq_ghz * 1e9);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  est.gflops = flops / est.seconds * 1e-9;
  est.efficiency = est.gflops / machine.peak_gflops(threads);
  return est;
}

}  // namespace ag::sim
