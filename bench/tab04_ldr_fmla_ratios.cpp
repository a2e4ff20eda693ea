// Regenerates Table IV: micro-benchmark efficiency as a function of the
// LDR : FMLA instruction ratio, on the cycle-level pipeline model
// calibrated once against the paper's seven published points.
//
// The three ratios that correspond to real GEBP kernels (1:2 ~ 4x4,
// 6:16 ~ 8x4, 7:24 ~ 8x6) additionally get a measured column: the actual
// kernel-shape dgemm is run and its efficiency against the calibrated
// machine peak reported. The `source` column says what backs that number
// — `hw` when hardware PMU cycles were live during the run, `sim` when
// only the pipeline model is available for that row.
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/matrix.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/gemm.hpp"
#include "obs/calibrate.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/pmu.hpp"
#include "sim/pipeline.hpp"

namespace {

/// Best-of-3 dgemm efficiency for one kernel shape against the calibrated
/// single-core peak; sets *hw to whether hardware counters observed the
/// run. Returns -1 when measurement is unavailable (stats compiled out).
double measure_kernel_efficiency(ag::KernelShape shape, std::int64_t n, double peak_gflops,
                                 bool* hw) {
  *hw = false;
  if (!ag::obs::stats_compiled_in || peak_gflops <= 0 || n <= 0) return -1;
  auto a = ag::random_matrix(n, n, 1);
  auto b = ag::random_matrix(n, n, 2);
  auto c = ag::random_matrix(n, n, 3);
  ag::Context ctx(shape, 1);
  ag::obs::GemmStats stats;
  ag::obs::PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);
  const auto call = [&] {
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, n, 1.0,
              a.data(), a.ld(), b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
  };
  call();  // warm-up
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    ag::Timer t;
    call();
    best = std::min(best, t.seconds());
  }
  *hw = pmu.any_hardware();
  const double gflops = 2.0 * static_cast<double>(n) * n * n / best * 1e-9;
  return gflops / peak_gflops;
}

}  // namespace

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  agbench::banner("Table IV", "efficiencies under varying LDR:FMLA ratios");
  const std::int64_t size = args.get_int("size", 256);

  // One quick calibration supplies the peak the measured column is
  // normalized by (skippable for the pure-simulation table).
  double peak_gflops = 0;
  if (ag::obs::stats_compiled_in && args.get_bool("measure", true)) {
    ag::obs::CalibrationOptions copts;
    copts.seconds_per_probe = args.get_double("probe-seconds", 0.02);
    peak_gflops = ag::obs::calibrate(copts).peak_gflops;
  }

  const ag::sim::PipelineConfig cfg;  // defaults = calibrated port costs
  ag::Table t({"LDR:FMLA", "simulated efficiency", "paper", "measured", "source", "kernel"});
  auto kernel_for = [](int l, int f) -> ag::KernelShape {
    if (l == 1 && f == 2) return {4, 4};
    if (l == 6 && f == 16) return {8, 4};
    if (l == 7 && f == 24) return {8, 6};
    return {0, 0};
  };
  for (const auto& p : ag::sim::table4_reference()) {
    const ag::KernelShape shape = kernel_for(p.ldrs, p.fmlas);
    const double eff = ag::sim::simulate_ldr_fmla_ratio(p.ldrs, p.fmlas, cfg);
    bool hw = false;
    const double measured =
        shape.mr > 0 && peak_gflops > 0
            ? measure_kernel_efficiency(shape, size, peak_gflops, &hw)
            : -1;
    std::string gebp;
    if (shape.mr > 0) gebp.append("~").append(shape.to_string()).append(" GEBP");
    t.add_row({std::to_string(p.ldrs) + ":" + std::to_string(p.fmlas),
               ag::Table::fmt_pct(eff, 1), ag::Table::fmt_pct(p.efficiency, 1),
               measured >= 0 ? ag::Table::fmt_pct(measured, 1) : "-",
               measured >= 0 ? (hw ? "hw" : "sim") : "sim", gebp});
  }
  agbench::emit(args, t);

  double rms = 0;
  const auto fit = ag::sim::calibrate_to_table4(&rms);
  std::cout << "\nCalibration: issue-port costs fmla=" << ag::Table::fmt(fit.fmla_port, 2)
            << " cycles, ldr q=" << ag::Table::fmt(fit.ldr_port, 2)
            << " cycles (defaults " << ag::Table::fmt(cfg.fmla_port, 2) << "/"
            << ag::Table::fmt(cfg.ldr_port, 2) << "), RMS error vs Table IV = "
            << ag::Table::fmt_pct(rms, 2) << ".\n"
            << "The 7:24 row is the paper's 91.5% upper bound for the 8x6 kernel.\n";
  if (peak_gflops > 0)
    std::cout << "Measured column: dgemm at n=" << size << " vs calibrated peak "
              << ag::Table::fmt(peak_gflops, 2)
              << " Gflops/core (pass --measure=0 to skip).\n";
  return 0;
}
