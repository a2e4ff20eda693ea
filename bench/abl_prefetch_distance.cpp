// Ablation (DESIGN.md): sensitivity to the prefetch distances PREA/PREB
// of Section IV-B. The trace simulator measures L1 load-miss rates with
// prefetching off and with the distances scaled 0.5x / 1x / 2x / 4x.
// With --native, the same sweep instead drives the HOST kernels through
// the ARMGEMM_PREA/ARMGEMM_PREB knobs and reports measured Gflops.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "common/table.hpp"
#include "core/block_sizes.hpp"
#include "core/gemm.hpp"
#include "model/machine.hpp"
#include "sim/trace.hpp"

namespace {

struct Config {
  const char* name;
  bool prefetch;
  double scale;
};

constexpr Config kConfigs[] = {
    {"no prefetch", false, 1.0}, {"0.5x distances", true, 0.5}, {"1x (paper)", true, 1.0},
    {"2x distances", true, 2.0}, {"4x distances", true, 4.0},
};

// Knob-driven sweep over the real register kernels: best-of-reps wall
// time per distance pair. The knobs are restored before returning.
void run_native(const ag::CliArgs& args, std::int64_t size) {
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::int64_t prev_prea = ag::prefetch_a_bytes();
  const std::int64_t prev_preb = ag::prefetch_b_bytes();
  auto a = ag::random_matrix(size, size, 1);
  auto b = ag::random_matrix(size, size, 2);
  auto c = ag::random_matrix(size, size, 3);
  ag::Context ctx(ag::KernelShape{8, 6}, 1);

  ag::Table t({"config", "PREA (B)", "PREB (B)", "best Gflops"});
  for (const auto& cfg : kConfigs) {
    const std::int64_t prea =
        cfg.prefetch ? static_cast<std::int64_t>(1024 * cfg.scale) : 0;
    const std::int64_t preb =
        cfg.prefetch ? static_cast<std::int64_t>(24576 * cfg.scale) : 0;
    ag::set_knob(ag::Knob::kPrea, prea);
    ag::set_knob(ag::Knob::kPreb, preb);
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, size, size,
                size, 1.0, a.data(), a.ld(), b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0).count();
      const double gflops = 2.0 * static_cast<double>(size) * size * size / s * 1e-9;
      if (gflops > best) best = gflops;
    }
    t.add_row({cfg.name, cfg.prefetch ? std::to_string(prea) : "-",
               cfg.prefetch ? std::to_string(preb) : "-", ag::Table::fmt(best, 2)});
  }
  ag::set_knob(ag::Knob::kPrea, prev_prea);
  ag::set_knob(ag::Knob::kPreb, prev_preb);
  agbench::emit(args, t);

  std::cout << "\nNative mode: distances feed the ARMGEMM_PREA/ARMGEMM_PREB knobs the\n"
            << "register kernels read; \"no prefetch\" sets both to 0 (prefetch off).\n";
}

}  // namespace

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  agbench::banner("Ablation", "prefetch distances PREA/PREB (Section IV-B)");
  const std::int64_t size = args.get_int("size", 384);

  if (args.get_bool("native", false)) {
    run_native(args, size);
    return 0;
  }

  ag::Table t({"config", "PREA (B)", "PREB (B)", "L1 load miss rate", "mem reads (K lines)"});
  for (const auto& c : kConfigs) {
    ag::sim::TraceConfig cfg;
    cfg.blocks = ag::paper_block_sizes({8, 6}, 1);
    cfg.prefetch = c.prefetch;
    cfg.prea_bytes = static_cast<std::int64_t>(1024 * c.scale);
    cfg.preb_bytes = static_cast<std::int64_t>(24576 * c.scale);
    const auto r = ag::sim::trace_dgemm(ag::model::xgene(), cfg, size, size, size);
    t.add_row({c.name, c.prefetch ? std::to_string(cfg.prea_bytes) : "-",
               c.prefetch ? std::to_string(cfg.preb_bytes) : "-",
               ag::Table::fmt_pct(r.l1_load_miss_rate(), 2),
               ag::Table::fmt(static_cast<double>(r.memory_reads) * 1e-3, 1)});
  }
  agbench::emit(args, t);

  std::cout << "\nExpected shape: the paper's distances (PREA=1024, PREB=24576) cut the\n"
            << "L1 load-miss rate relative to no prefetching; far larger distances\n"
            << "prefetch past the useful window and help less.\n";
  return 0;
}
