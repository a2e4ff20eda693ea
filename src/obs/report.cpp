#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/knobs.hpp"
#include "model/machine.hpp"
#include "obs/expected.hpp"

namespace ag::obs {

namespace {

std::string human_bytes(double bytes) {
  const char* unit = "B";
  if (bytes >= 1e9) {
    bytes /= 1e9;
    unit = "GB";
  } else if (bytes >= 1e6) {
    bytes /= 1e6;
    unit = "MB";
  } else if (bytes >= 1e3) {
    bytes /= 1e3;
    unit = "KB";
  }
  return Table::fmt(bytes, 2) + " " + unit;
}

std::string bandwidth(double bytes, double seconds) {
  if (seconds <= 0) return "-";
  return Table::fmt(bytes / seconds / 1e9, 2) + " GB/s";
}

std::string share(double seconds, double total) {
  if (total <= 0) return "-";
  return Table::fmt_pct(seconds / total);
}

void compare_row(Table& t, const char* name, double measured, double model, int precision = 0) {
  std::vector<std::string> row{name, Table::fmt(measured, precision),
                               Table::fmt(model, precision)};
  row.push_back(model != 0 ? Table::fmt_pct(measured / model - 1.0, 2) : "-");
  t.add_row(std::move(row));
}

}  // namespace

Table layer_breakdown_table(const LayerCounters& m) {
  Table t({"layer", "time (s)", "share", "calls", "bytes", "bandwidth"});
  const double total = m.total_seconds;
  t.add_row({"pack-A (layer 3)", Table::fmt(m.pack_a_seconds, 6), share(m.pack_a_seconds, total),
             Table::fmt_int(static_cast<long long>(m.pack_a_calls)),
             human_bytes(static_cast<double>(m.pack_a_bytes)),
             bandwidth(static_cast<double>(m.pack_a_bytes), m.pack_a_seconds)});
  t.add_row({"pack-B (layer 2)", Table::fmt(m.pack_b_seconds, 6), share(m.pack_b_seconds, total),
             Table::fmt_int(static_cast<long long>(m.pack_b_calls)),
             human_bytes(static_cast<double>(m.pack_b_bytes)),
             bandwidth(static_cast<double>(m.pack_b_bytes), m.pack_b_seconds)});
  t.add_row({"GEBP (layers 4-7)", Table::fmt(m.gebp_seconds, 6), share(m.gebp_seconds, total),
             Table::fmt_int(static_cast<long long>(m.gebp_calls)),
             human_bytes(static_cast<double>(m.c_bytes)),
             bandwidth(static_cast<double>(m.c_bytes), m.gebp_seconds)});
  if (m.small_calls)
    t.add_row({"small fast path", Table::fmt(m.small_seconds, 6),
               share(m.small_seconds, total),
               Table::fmt_int(static_cast<long long>(m.small_calls)), "-", "-"});
  t.add_row({"barrier wait", Table::fmt(m.barrier_seconds, 6), share(m.barrier_seconds, total),
             "-", "-", "-"});
  t.add_row({"other (driver)", Table::fmt(m.other_seconds(), 6),
             share(m.other_seconds(), total), "-", "-", "-"});
  t.add_row({"total", Table::fmt(total, 6), "100.0%",
             Table::fmt_int(static_cast<long long>(m.gemm_calls)),
             human_bytes(m.total_bytes()), bandwidth(m.total_bytes(), total)});
  return t;
}

Table measured_vs_model_table(const LayerCounters& measured, std::int64_t m, std::int64_t n,
                              std::int64_t k, const BlockSizes& bs) {
  const LayerCounters want = expected_gemm_counters(m, n, k, bs);
  Table t({"counter", "measured", "model", "delta"});
  compare_row(t, "pack_a_bytes", static_cast<double>(measured.pack_a_bytes),
              static_cast<double>(want.pack_a_bytes));
  compare_row(t, "pack_b_bytes", static_cast<double>(measured.pack_b_bytes),
              static_cast<double>(want.pack_b_bytes));
  compare_row(t, "c_bytes", static_cast<double>(measured.c_bytes),
              static_cast<double>(want.c_bytes));
  compare_row(t, "pack_a_calls", static_cast<double>(measured.pack_a_calls),
              static_cast<double>(want.pack_a_calls));
  compare_row(t, "gebp_calls", static_cast<double>(measured.gebp_calls),
              static_cast<double>(want.gebp_calls));
  compare_row(t, "kernel_calls", static_cast<double>(measured.kernel_calls),
              static_cast<double>(want.kernel_calls));
  compare_row(t, "small_calls", static_cast<double>(measured.small_calls),
              static_cast<double>(want.small_calls));
  compare_row(t, "flops", measured.flops, want.flops);
  compare_row(t, "gamma (F/W, Eq. 2)", measured.gamma(), want.gamma(), 3);
  return t;
}

std::string format_report(const LayerCounters& measured, std::int64_t m, std::int64_t n,
                          std::int64_t k, const BlockSizes& bs, const ReportOptions& opts) {
  std::ostringstream os;
  os << "per-layer breakdown (" << m << "x" << n << "x" << k << ", blocks "
     << bs.mr << "x" << bs.nr << ", kc=" << bs.kc << ", mc=" << bs.mc << ", nc=" << bs.nc
     << "):\n";
  os << layer_breakdown_table(measured).to_text();
  os << "\nmeasured vs blocking-arithmetic model:\n";
  os << measured_vs_model_table(measured, m, n, k, bs).to_text();

  os << "\nperf-model ratios: gamma_gess (Eq. 14) = "
     << Table::fmt(model::gamma_gess(bs.mr, bs.nr, bs.kc), 3)
     << ", gamma_gebp (Eq. 16) = "
     << Table::fmt(model::gamma_gebp(bs.mr, bs.nr, bs.kc, bs.mc), 3)
     << ", measured effective gamma = " << Table::fmt(measured.gamma(), 3) << "\n";
  os << "kernel prefetch: PREA=" << prefetch_a_bytes() << " B, PREB=" << prefetch_b_bytes()
     << " B (Section IV-B model PREB = kc*nr*8 = "
     << static_cast<long long>(bs.kc) * bs.nr * 8 << " B)\n";
  os << "achieved: " << Table::fmt(measured.gflops(), 3) << " Gflops in "
     << Table::fmt(measured.total_seconds, 6) << " s\n";

  if (opts.peak_gflops > 0) {
    const double eff = measured.gflops() / opts.peak_gflops;
    const double gamma_model = model::gamma_gebp(bs.mr, bs.nr, bs.kc, bs.mc);
    const double bound_flops =
        model::perf_lower_bound(gamma_model, opts.cost, opts.psi_c);
    // perf_lower_bound is per core; peak per core is 1/mu, so the model's
    // efficiency bound is simply bound * mu.
    os << "efficiency: measured " << Table::fmt_pct(eff) << " of "
       << Table::fmt(opts.peak_gflops, 2) << " Gflops peak; Eq. (6) model bound "
       << Table::fmt_pct(bound_flops * opts.cost.mu) << " ("
       << Table::fmt(bound_flops * 1e-9, 2) << " Gflops/core)\n";
  }
  return os.str();
}

namespace {

std::string count_cell(std::uint64_t v) {
  if (v == 0) return "0";
  if (v >= 10'000'000'000ull) return Table::fmt(static_cast<double>(v) * 1e-9, 2) + "G";
  if (v >= 10'000'000ull) return Table::fmt(static_cast<double>(v) * 1e-6, 2) + "M";
  if (v >= 10'000ull) return Table::fmt(static_cast<double>(v) * 1e-3, 2) + "K";
  return Table::fmt_int(static_cast<long long>(v));
}

/// "-" when the backing event never opened (value would be a lie).
std::string gated_cell(const std::array<PmuSource, kPmuEventCount>& src, PmuEvent e,
                       std::uint64_t v) {
  return src[static_cast<std::size_t>(e)] == PmuSource::kUnavailable ? "-" : count_cell(v);
}

std::string verdict_cell(double measured, double predicted, double threshold) {
  if (measured < 0 || predicted < 0) return "-";
  const double base = std::max(std::abs(predicted), 1e-12);
  const double rel = std::abs(measured - predicted) / base;
  return rel <= threshold ? "ok"
                          : "DIVERGES(" + Table::fmt_pct(rel, 0) + ")";
}

}  // namespace

Table pmu_layer_table(const PmuCollector& pmu) {
  const auto src = pmu.sources();
  Table t({"layer", "regions", "cycles", "instr", "IPC", "L1d acc", "L1d refill",
           "L1d miss", "L2 refill", "stall", "br miss"});
  for (int l = 0; l < kPmuLayerCount; ++l) {
    const PmuLayer layer = static_cast<PmuLayer>(l);
    const PmuCounts c = pmu.layer_totals(layer);
    const std::uint64_t regions = pmu.layer_regions(layer);
    if (regions == 0) continue;
    const bool have_l1 =
        src[static_cast<std::size_t>(PmuEvent::kL1dAccess)] != PmuSource::kUnavailable &&
        c[PmuEvent::kL1dAccess] > 0;
    t.add_row({to_string(layer), count_cell(regions), count_cell(c[PmuEvent::kCycles]),
               gated_cell(src, PmuEvent::kInstructions, c[PmuEvent::kInstructions]),
               src[static_cast<std::size_t>(PmuEvent::kInstructions)] ==
                       PmuSource::kUnavailable
                   ? "-"
                   : Table::fmt(c.ipc(), 2),
               gated_cell(src, PmuEvent::kL1dAccess, c[PmuEvent::kL1dAccess]),
               gated_cell(src, PmuEvent::kL1dRefill, c[PmuEvent::kL1dRefill]),
               have_l1 ? Table::fmt_pct(c.l1d_miss_rate()) : "-",
               gated_cell(src, PmuEvent::kL2Refill, c[PmuEvent::kL2Refill]),
               src[static_cast<std::size_t>(PmuEvent::kStallCycles)] ==
                       PmuSource::kUnavailable
                   ? "-"
                   : Table::fmt_pct(c.stall_fraction()),
               gated_cell(src, PmuEvent::kBranchMisses, c[PmuEvent::kBranchMisses])});
  }
  return t;
}

Table hw_model_comparison_table(const PmuCollector& pmu, const LayerCounters& measured,
                                const BlockSizes& bs, const HwReportInputs& in) {
  const auto src = pmu.sources();
  const auto available = [&](PmuEvent e) {
    return src[static_cast<std::size_t>(e)] == PmuSource::kHardware;
  };
  Table t({"metric", "measured (hw)", "simulator", "analytic", "verdict"});

  // Table VII methodology: L1d read-miss rate of the whole call.
  const PmuCounts total = pmu.layer_totals(PmuLayer::kTotal);
  const double hw_l1 = available(PmuEvent::kL1dAccess) && available(PmuEvent::kL1dRefill) &&
                               total[PmuEvent::kL1dAccess] > 0
                           ? total.l1d_miss_rate()
                           : -1.0;
  t.add_row({"L1d miss rate", hw_l1 < 0 ? "-" : Table::fmt_pct(hw_l1),
             in.sim_l1_miss_rate < 0 ? "-" : Table::fmt_pct(in.sim_l1_miss_rate), "-",
             verdict_cell(hw_l1, in.sim_l1_miss_rate, in.divergence_threshold)});

  // Table V methodology: the GEBP instruction stream against the Eq. (8)
  // kernel mix. Analytic instructions/flop for an mr x nr SIMD kernel:
  // (mr*nr/2 fmla + (mr+nr)/2 ldr) per k-step retiring 2*mr*nr flops.
  const auto mix = model::kernel_instruction_mix(bs.mr, bs.nr, model::xgene());
  const double model_instr_per_flop =
      (mix.fmla_per_iter + mix.loads_per_iter) / (2.0 * bs.mr * bs.nr);
  const PmuCounts gebp = pmu.layer_totals(PmuLayer::kGebp);
  const double hw_instr_per_flop =
      available(PmuEvent::kInstructions) && measured.flops > 0 &&
              gebp[PmuEvent::kInstructions] > 0
          ? static_cast<double>(gebp[PmuEvent::kInstructions]) / measured.flops
          : -1.0;
  t.add_row({"GEBP instr/flop",
             hw_instr_per_flop < 0 ? "-" : Table::fmt(hw_instr_per_flop, 4), "-",
             Table::fmt(model_instr_per_flop, 4),
             verdict_cell(hw_instr_per_flop, model_instr_per_flop,
                          in.divergence_threshold)});
  t.add_row({"kernel ldr:fmla", "-", "-",
             Table::fmt(mix.ldr_to_fmla(), 3) + " (" +
                 Table::fmt_pct(mix.arithmetic_fraction()) + " arith)",
             "-"});

  // Context rows: no model prediction, measurement only.
  const double hw_ipc = available(PmuEvent::kInstructions) ? total.ipc() : -1.0;
  t.add_row({"IPC", hw_ipc < 0 ? "-" : Table::fmt(hw_ipc, 2), "-", "-", "-"});
  const double hw_stall =
      available(PmuEvent::kStallCycles) && total[PmuEvent::kCycles] > 0
          ? total.stall_fraction()
          : -1.0;
  t.add_row({"backend stall", hw_stall < 0 ? "-" : Table::fmt_pct(hw_stall), "-", "-",
             "-"});
  return t;
}

std::string format_hw_report(const PmuCollector& pmu, const LayerCounters& measured,
                             const BlockSizes& bs, const HwReportInputs& in) {
  std::ostringstream os;
  const auto src = pmu.sources();
  os << "hardware counters (" << (pmu.any_hardware() ? "PMU available" : "PMU fallback")
     << "; sources:";
  for (int e = 0; e < kPmuEventCount; ++e)
    os << " " << to_string(static_cast<PmuEvent>(e)) << "="
       << to_string(src[static_cast<std::size_t>(e)]);
  os << "):\n";
  os << pmu_layer_table(pmu).to_text();
  os << "\nmeasured vs simulator vs analytic model:\n";
  os << hw_model_comparison_table(pmu, measured, bs, in).to_text();
  if (in.peak_gflops > 0 && in.mem_gbytes_per_s > 0 && measured.total_bytes() > 0) {
    const double ai = measured.flops / measured.total_bytes();  // flops/byte
    const double roof = std::min(in.peak_gflops, ai * in.mem_gbytes_per_s);
    os << "\nroofline: AI " << Table::fmt(ai, 2) << " flop/B, roof "
       << Table::fmt(roof, 2) << " Gflops (compute " << Table::fmt(in.peak_gflops, 2)
       << ", memory " << Table::fmt(ai * in.mem_gbytes_per_s, 2) << "), achieved "
       << Table::fmt(measured.gflops(), 2) << " Gflops ("
       << Table::fmt_pct(roof > 0 ? measured.gflops() / roof : 0.0) << " of roof)\n";
    if (roof > 0 && measured.gflops() > roof)
      os << "  (above the memory roof: the packed/C traffic counted into AI is largely\n"
         << "   cache-served, while the roof uses the un-overlapped DRAM word cost pi)\n";
  }
  return os.str();
}

}  // namespace ag::obs
