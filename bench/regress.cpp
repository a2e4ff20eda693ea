// Benchmark-regression harness: sweeps dgemm over (m, n, k) points x
// thread counts, emits a schema-versioned BENCH_<host>_<date>.json
// (gflops, efficiency against the calibrated peak, per-layer time/byte
// counters, hardware PMU totals with provenance), and — given
// --baseline=<file> — compares efficiency point-by-point against a
// previous run, exiting nonzero when any configuration regressed beyond
// --threshold.
//
//   regress --out=now.json                      # record a run
//   regress --baseline=then.json                # record + gate
//   regress --baseline=then.json --inject-regression=0.5   # gate self-test
//   regress --sizes=64,128                      # only those squares
//   regress --shapes=2048x64x64,64x2048x64      # only those shapes
//
// With neither --sizes nor --shapes the default sweep covers large
// squares, small squares that exercise the no-pack fast path, and
// tall/wide-skinny shapes that exercise the 2-D dynamic scheduler.
// Every run additionally records four packing-bandwidth points (pack_a /
// pack_b x NoTrans/Trans at native_packing's shapes), gated on GB/s, and
// two batched points (64 small squares, 8 tall-skinny entries sharing
// one B) through dgemm_strided_batch, gated on aggregate Gflops.
// Schema 5 adds one autotune point per thread count (256^3 through a
// pinned context vs a tunable one), gated live — the configuration a
// tunable call resolves (the cache file's entry, or the anchor) must
// never lose to the paper/host defaults — and against the baseline's
// tuned Gflops. Schema 6 adds topology-schedule points:
// the analytic big.LITTLE schedule simulator (sim/biglittle) replays
// the runtime's exact panel/ticket arithmetic for 256^3..512^3 under an
// emulated 2-class 2:1 topology and records the weighted-vs-round-robin
// wall speedup. These are pure deterministic arithmetic — identical on
// any host, symmetric or not — gated live (weighted must never lose to
// round-robin) and against the baseline's speedups. Baselines written
// by schema armgemm-bench/1 (square-only, keyed by "n"), /2 (no packing
// points), /3 (no batched points), /4 (no autotune points) and /5 (no
// topology points) are still accepted: missing m/k default to n, and
// points absent from the baseline are reported as ungated.
//
// Points missing from the baseline are never silently skipped: they are
// listed with a warning, and --unknown=fail turns them into a gate
// failure (default --unknown=warn).
//
// Exit codes: 0 ok, 1 efficiency regression (or unmatched points under
// --unknown=fail), 2 usage/baseline error.
// tools/bench_diff.py renders the same files side by side.
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "bench_util.hpp"
#include "common/aligned_buffer.hpp"
#include "common/json.hpp"
#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/packing.hpp"
#include "obs/calibrate.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/pmu.hpp"
#include "sim/biglittle.hpp"

namespace {

constexpr const char* kSchema = "armgemm-bench/6";
constexpr const char* kSchemaV5 = "armgemm-bench/5";  // no topology points
constexpr const char* kSchemaV4 = "armgemm-bench/4";  // no autotune points
constexpr const char* kSchemaV3 = "armgemm-bench/3";  // no batched points
constexpr const char* kSchemaV2 = "armgemm-bench/2";  // no packing-bandwidth points
constexpr const char* kSchemaV1 = "armgemm-bench/1";  // square-only baselines

struct BenchShape {
  std::int64_t m = 0, n = 0, k = 0;
};

struct RunResult {
  std::int64_t m = 0, n = 0, k = 0;
  int threads = 1;
  double best_seconds = 0;
  double gflops = 0;
  double efficiency = 0;  // gflops / (threads * calibrated per-core peak)
  ag::obs::LayerCounters layers;
  ag::obs::PmuCounts pmu;
  std::uint64_t pmu_discarded = 0;
};

std::string host_name() {
#if !defined(_WIN32)
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0]) return buf;
#endif
  return "unknown-host";
}

std::string date_stamp() {
  std::time_t t = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  localtime_s(&tm, &t);
#else
  localtime_r(&t, &tm);
#endif
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y%m%d", &tm);
  return buf;
}

std::vector<int> thread_list(const ag::CliArgs& args) {
  const std::string raw = args.get("threads", "1,2");
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t next = raw.find(',', pos);
    if (next == std::string::npos) next = raw.size();
    out.push_back(std::stoi(raw.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

RunResult run_config(BenchShape sh, int threads, int reps, double peak_per_core,
                     double inject) {
  auto a = ag::random_matrix(sh.m, sh.k, 1);
  auto b = ag::random_matrix(sh.k, sh.n, 2);
  auto c = ag::random_matrix(sh.m, sh.n, 3);
  ag::Context ctx(ag::KernelShape{8, 6}, threads);
  const auto call = [&] {
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, sh.m, sh.n, sh.k,
              1.0, a.data(), a.ld(), b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
  };
  call();  // warm-up: page in buffers, spin up the pool

  // The timed reps run with no collector attached, so the efficiency
  // measures GEMM, not the instrumentation.
  RunResult r;
  r.m = sh.m;
  r.n = sh.n;
  r.k = sh.k;
  r.threads = threads;
  r.best_seconds = 1e300;
  for (int i = 0; i < reps; ++i) {
    ag::Timer t;
    call();
    r.best_seconds = std::min(r.best_seconds, t.seconds());
  }
  const double flops = 2.0 * static_cast<double>(sh.m) * static_cast<double>(sh.n) *
                       static_cast<double>(sh.k);
  r.gflops = inject * flops / r.best_seconds * 1e-9;
  r.efficiency = peak_per_core > 0 ? r.gflops / (peak_per_core * threads) : 0;

  // A separate instrumented pass of as many calls gives the layer split
  // and the PMU totals.
  ag::obs::GemmStats stats;
  ag::obs::PmuCollector pmu;
  stats.set_pmu(&pmu);
  ctx.set_stats(&stats);
  call();  // opens every rank's counters
  stats.reset();
  pmu.reset();
  for (int i = 0; i < reps; ++i) call();
  ctx.set_stats(nullptr);
  r.layers = stats.totals();
  r.pmu = pmu.layer_totals(ag::obs::PmuLayer::kTotal);
  r.pmu_discarded = pmu.discarded_regions();
  return r;
}

// Packing-bandwidth point (native_packing's shapes): one per layer x
// trans combination, gated on GB/s like the dgemm points are on
// efficiency. These catch regressions in the vectorized packers that
// whole-GEMM timings can wash out.
struct PackResult {
  const char* op = "";     // "pack_a" | "pack_b"
  const char* trans = "";  // "N" | "T"
  double best_seconds = 0;
  double gbps = 0;  // source bytes moved / best_seconds
};

std::vector<PackResult> run_packing_points(int reps, double inject) {
  constexpr ag::index_t mc = 56, nc = 1920, kc = 512;
  constexpr int mr = 8, nr = 6;
  constexpr int iters = 8;  // packs per timed rep: one pack alone is too brief
  std::vector<PackResult> out;
  for (const bool is_a : {true, false}) {
    const double bytes = static_cast<double>(is_a ? mc * kc : kc * nc) * sizeof(double);
    for (const ag::Trans trans : {ag::Trans::NoTrans, ag::Trans::Trans}) {
      const bool no_trans = trans == ag::Trans::NoTrans;
      const ag::index_t rows = is_a ? (no_trans ? mc : kc) : (no_trans ? kc : nc);
      const ag::index_t cols = is_a ? (no_trans ? kc : mc) : (no_trans ? nc : kc);
      auto src = ag::random_matrix(rows, cols, is_a ? 1 : 2);
      ag::AlignedBuffer<double> dst(static_cast<std::size_t>(
          is_a ? ag::packed_a_size(mc, kc, mr) : ag::packed_b_size(kc, nc, nr)));
      PackResult r;
      r.op = is_a ? "pack_a" : "pack_b";
      r.trans = no_trans ? "N" : "T";
      r.best_seconds = 1e300;
      for (int rep = 0; rep < reps + 1; ++rep) {  // first rep doubles as warm-up
        ag::Timer t;
        for (int i = 0; i < iters; ++i) {
          if (is_a)
            ag::pack_a(trans, src.data(), src.ld(), 0, 0, mc, kc, mr, dst.data());
          else
            ag::pack_b(trans, src.data(), src.ld(), 0, 0, kc, nc, nr, dst.data());
        }
        if (rep > 0) r.best_seconds = std::min(r.best_seconds, t.seconds() / iters);
      }
      r.gbps = inject * bytes / r.best_seconds * 1e-9;
      out.push_back(r);
    }
  }
  return out;
}

// Batched-GEMM point: `count` uniform entries submitted as one
// dgemm_strided_batch call to the persistent pool, gated on aggregate
// Gflops like the dgemm points are on efficiency. `speedup` (batch call
// vs a loop of dgemm calls over the same entries) is recorded for
// reporting but not gated — it is a ratio of two noisy timings.
struct BatchResult {
  const char* label = "";  // "batch64_small" | "batch8_skinny"
  std::int64_t m = 0, n = 0, k = 0, count = 0;
  int threads = 1;
  double best_seconds = 0;
  double gflops = 0;       // aggregate over all entries
  double loop_seconds = 0; // best time of the sequential-calls loop
  double speedup = 0;      // loop_seconds / best_seconds
};

BatchResult run_batch_point(const char* label, std::int64_t m, std::int64_t n, std::int64_t k,
                            std::int64_t count, int threads, int reps, double inject) {
  const std::int64_t stride_a = m * k, stride_b = 0, stride_c = m * n;  // shared B
  auto a = ag::random_matrix(m, k * count, 11);  // count A panels back to back
  auto b = ag::random_matrix(k, n, 12);
  auto c = ag::random_matrix(m, n * count, 13);
  ag::Context ctx(ag::KernelShape{8, 6}, threads);

  BatchResult r;
  r.label = label;
  r.m = m;
  r.n = n;
  r.k = k;
  r.count = count;
  r.threads = threads;
  r.best_seconds = 1e300;
  r.loop_seconds = 1e300;
  const auto batch_call = [&] {
    ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m,
                            n, k, 1.0, a.data(), m, stride_a, b.data(), b.ld(), stride_b, 1.0,
                            c.data(), m, stride_c, count, ctx);
  };
  const auto loop_call = [&] {
    for (std::int64_t i = 0; i < count; ++i)
      ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
                a.data() + i * stride_a, m, b.data(), b.ld(), 1.0, c.data() + i * stride_c, m,
                ctx);
  };
  batch_call();  // warm-up: page in buffers, spin up the persistent pool
  loop_call();
  for (int i = 0; i < reps; ++i) {
    ag::Timer tb;
    batch_call();
    r.best_seconds = std::min(r.best_seconds, tb.seconds());
    ag::Timer tl;
    loop_call();
    r.loop_seconds = std::min(r.loop_seconds, tl.seconds());
  }
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k) * static_cast<double>(count);
  r.gflops = inject * flops / r.best_seconds * 1e-9;
  r.speedup = r.loop_seconds / r.best_seconds;
  return r;
}

std::vector<BatchResult> run_batch_points(const std::vector<int>& threads, int reps,
                                          double inject) {
  std::vector<BatchResult> out;
  for (int t : threads) {
    // 64 small squares: per-entry work is tiny, so submission overhead
    // (the fork/join the persistent pool eliminates) dominates.
    out.push_back(run_batch_point("batch64_small", 64, 64, 64, 64, t, reps, inject));
    // 8 tall-skinny entries sharing one B: panel-cache reuse territory.
    out.push_back(run_batch_point("batch8_skinny", 512, 48, 48, 8, t, reps, inject));
  }
  return out;
}

// Autotune point (schema 5): the same dgemm timed through a pinned
// context (paper/host defaults, exactly the pre-tuner behavior) and a
// tunable one (kernel + blocking from the ARMGEMM_TUNE_CACHE entry of
// its key, or the anchor, which equals the defaults). Gated
// LIVE — tuned must not lose to default beyond the threshold even without
// a baseline — and against the baseline's tuned Gflops when present.
// The two contexts run in interleaved pairs, alternating which goes
// first, so host drift lands on both sides of a pair; the live gate reads
// the median of the per-pair ratios.
struct TuneResult {
  std::int64_t n = 0;  // n x n x n square
  int threads = 1;
  double default_gflops = 0;  // pinned context, median over the pairs
  double tuned_gflops = 0;    // tunable context, median over the pairs
  double ratio = 0;           // median per-pair tuned / default
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

TuneResult run_tune_point(std::int64_t n, int threads, int reps, double inject) {
  auto a = ag::random_matrix(n, n, 21);
  auto b = ag::random_matrix(n, n, 22);
  auto c = ag::random_matrix(n, n, 23);
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);

  TuneResult r;
  r.n = n;
  r.threads = threads;
  ag::Context pinned(ag::KernelShape{8, 6}, threads);
  ag::Context tuned(ag::KernelShape{8, 6}, threads);
  tuned.set_tunable(true);
  const auto gflops = [&](ag::Context& ctx) {
    ag::Timer t;
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, n, 1.0,
              a.data(), a.ld(), b.data(), b.ld(), 1.0, c.data(), c.ld(), ctx);
    return flops / t.seconds() * 1e-9;
  };
  gflops(pinned);  // warm-up
  gflops(tuned);   // warm-up: resolves the key (reads the cache file)
  // Floor of 7 pairs regardless of --reps: this point feeds a live gate,
  // and one noisy pair must not fail the run.
  std::vector<double> def, tun, ratio;
  for (int i = 0; i < std::max(reps, 7); ++i) {
    double d, t;
    if (i % 2 == 0) {
      d = gflops(pinned);
      t = gflops(tuned);
    } else {
      t = gflops(tuned);
      d = gflops(pinned);
    }
    def.push_back(d);
    tun.push_back(inject * t);
    ratio.push_back(inject * t / d);
  }
  r.default_gflops = median_of(def);
  r.tuned_gflops = median_of(tun);
  r.ratio = median_of(ratio);
  return r;
}

std::vector<TuneResult> run_tune_points(const std::vector<int>& threads, int reps,
                                        double inject) {
  std::vector<TuneResult> out;
  for (int t : threads) out.push_back(run_tune_point(256, t, reps, inject));
  return out;
}

// Topology-schedule point (schema 6): the analytic big.LITTLE simulator
// replays the runtime's panel/ticket arithmetic under an emulated
// 2-class 2:1 topology (2 big + 2 LITTLE) and reports the weighted-vs-
// round-robin wall speedup. Deterministic closed-form arithmetic — the
// same on every host — so the gate catches scheduling-arithmetic
// regressions without any timing noise.
struct TopoResult {
  std::int64_t n = 0;  // n x n x n square
  double round_robin_wall = 0;
  double weighted_wall = 0;        // spans only
  double weighted_steal_wall = 0;  // spans + greedy rebalancing
  double speedup = 0;              // round_robin / weighted_steal
};

std::vector<TopoResult> run_topology_points(double inject) {
  const ag::sim::BigLittleConfig cfg = ag::sim::BigLittleConfig::two_to_one(2, 2);
  const ag::BlockSizes bs = ag::default_block_sizes(ag::KernelShape{8, 6}, cfg.ranks());
  std::vector<TopoResult> out;
  for (std::int64_t n : {std::int64_t{256}, std::int64_t{384}, std::int64_t{512}}) {
    const ag::sim::GemmScheduleResult r = ag::sim::simulate_gemm_schedule(cfg, n, n, n, bs);
    TopoResult t;
    t.n = n;
    t.round_robin_wall = r.round_robin_wall;
    t.weighted_wall = r.weighted_wall;
    t.weighted_steal_wall = r.weighted_steal_wall;
    t.speedup = inject * r.speedup();
    out.push_back(t);
  }
  return out;
}

void json_layers(std::ostream& os, const ag::obs::LayerCounters& t) {
  os.precision(9);
  os << "{\"pack_a_seconds\":" << t.pack_a_seconds
     << ",\"pack_b_seconds\":" << t.pack_b_seconds
     << ",\"gebp_seconds\":" << t.gebp_seconds
     << ",\"barrier_seconds\":" << t.barrier_seconds
     << ",\"small_seconds\":" << t.small_seconds
     << ",\"total_seconds\":" << t.total_seconds << ",\"pack_a_bytes\":" << t.pack_a_bytes
     << ",\"pack_b_bytes\":" << t.pack_b_bytes << ",\"c_bytes\":" << t.c_bytes
     << ",\"kernel_calls\":" << t.kernel_calls << ",\"gebp_calls\":" << t.gebp_calls
     << ",\"small_calls\":" << t.small_calls << "}";
}

void json_pmu(std::ostream& os, const RunResult& r) {
  using ag::obs::PmuEvent;
  os << "{\"cycles\":" << r.pmu[PmuEvent::kCycles]
     << ",\"instructions\":" << r.pmu[PmuEvent::kInstructions]
     << ",\"l1d_access\":" << r.pmu[PmuEvent::kL1dAccess]
     << ",\"l1d_refill\":" << r.pmu[PmuEvent::kL1dRefill]
     << ",\"l2_refill\":" << r.pmu[PmuEvent::kL2Refill]
     << ",\"stall_cycles\":" << r.pmu[PmuEvent::kStallCycles]
     << ",\"branch_misses\":" << r.pmu[PmuEvent::kBranchMisses]
     << ",\"task_clock_ns\":" << r.pmu[PmuEvent::kTaskClockNs]
     << ",\"discarded_regions\":" << r.pmu_discarded << "}";
}

std::string report_json(const std::vector<RunResult>& results,
                        const std::vector<PackResult>& packing,
                        const std::vector<BatchResult>& batches,
                        const std::vector<TuneResult>& tune,
                        const std::vector<TopoResult>& topology,
                        const ag::obs::CalibrationResult& cal, int reps) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"schema\":\"" << kSchema << "\",\"host\":\"" << host_name() << "\",\"date\":\""
     << date_stamp() << "\",\"reps\":" << reps
     << ",\"pmu_hardware\":" << (ag::obs::PmuGroup::hardware_available() ? "true" : "false")
     << ",\"packing_isa\":\"" << ag::packing_isa() << "\""
     << ",\"peak_gflops_per_core\":" << cal.peak_gflops << ",\"calibration\":" << cal.to_json()
     << ",\"packing\":[";
  for (std::size_t i = 0; i < packing.size(); ++i) {
    const PackResult& p = packing[i];
    if (i) os << ",";
    os << "{\"op\":\"" << p.op << "\",\"trans\":\"" << p.trans
       << "\",\"best_seconds\":" << p.best_seconds << ",\"gbps\":" << p.gbps << "}";
  }
  os << "],\"batch\":[";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchResult& b = batches[i];
    if (i) os << ",";
    os << "{\"label\":\"" << b.label << "\",\"m\":" << b.m << ",\"n\":" << b.n
       << ",\"k\":" << b.k << ",\"count\":" << b.count << ",\"threads\":" << b.threads
       << ",\"best_seconds\":" << b.best_seconds << ",\"gflops\":" << b.gflops
       << ",\"loop_seconds\":" << b.loop_seconds << ",\"speedup\":" << b.speedup << "}";
  }
  os << "],\"tune\":[";
  for (std::size_t i = 0; i < tune.size(); ++i) {
    const TuneResult& t = tune[i];
    if (i) os << ",";
    os << "{\"n\":" << t.n << ",\"threads\":" << t.threads
       << ",\"default_gflops\":" << t.default_gflops
       << ",\"tuned_gflops\":" << t.tuned_gflops << ",\"ratio\":" << t.ratio << "}";
  }
  os << "],\"topology\":[";
  for (std::size_t i = 0; i < topology.size(); ++i) {
    const TopoResult& t = topology[i];
    if (i) os << ",";
    os << "{\"n\":" << t.n << ",\"round_robin_wall\":" << t.round_robin_wall
       << ",\"weighted_wall\":" << t.weighted_wall
       << ",\"weighted_steal_wall\":" << t.weighted_steal_wall
       << ",\"speedup\":" << t.speedup << "}";
  }
  os << "],\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    if (i) os << ",";
    os << "{\"m\":" << r.m << ",\"n\":" << r.n << ",\"k\":" << r.k
       << ",\"threads\":" << r.threads
       << ",\"best_seconds\":" << r.best_seconds << ",\"gflops\":" << r.gflops
       << ",\"efficiency\":" << r.efficiency << ",\"layers\":";
    json_layers(os, r.layers);
    os << ",\"pmu\":";
    json_pmu(os, r);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string shape_label(std::int64_t m, std::int64_t n, std::int64_t k) {
  std::ostringstream os;
  if (m == n && n == k)
    os << "n=" << n;
  else
    os << "shape=" << m << "x" << n << "x" << k;
  return os.str();
}

/// Compares each current result against the baseline entry with the same
/// (m, n, k, threads); returns the number of regressions beyond
/// `threshold` (relative efficiency drop), printing one line per
/// comparison. Schema-1 baselines carry only "n": their m and k default
/// to n, so square points still match. Points with no baseline entry are
/// appended to `unknown` — they must never silently pass the gate.
int compare_against_baseline(const std::vector<RunResult>& results,
                             const ag::JsonValue& baseline, double threshold,
                             std::vector<std::string>* unknown) {
  const ag::JsonValue& base_results = baseline["results"];
  int regressions = 0;
  for (const RunResult& r : results) {
    const ag::JsonValue* match = nullptr;
    for (const ag::JsonValue& b : base_results.items()) {
      const std::int64_t bn = static_cast<std::int64_t>(b["n"].as_number());
      const std::int64_t bm = b["m"].is_null() ? bn : static_cast<std::int64_t>(b["m"].as_number());
      const std::int64_t bk = b["k"].is_null() ? bn : static_cast<std::int64_t>(b["k"].as_number());
      if (bm == r.m && bn == r.n && bk == r.k &&
          static_cast<int>(b["threads"].as_number()) == r.threads)
        match = &b;
    }
    const std::string label = shape_label(r.m, r.n, r.k);
    if (!match) {
      std::cout << "  " << label << " threads=" << r.threads
                << ": no baseline entry (NOT gated)\n";
      if (unknown) unknown->push_back(label + " threads=" + std::to_string(r.threads));
      continue;
    }
    const double base_eff = (*match)["efficiency"].as_number();
    const double drop = base_eff > 0 ? (base_eff - r.efficiency) / base_eff : 0;
    const bool bad = drop > threshold;
    std::cout << "  " << label << " threads=" << r.threads << ": efficiency "
              << ag::Table::fmt_pct(base_eff) << " -> " << ag::Table::fmt_pct(r.efficiency)
              << " (" << (drop >= 0 ? "-" : "+") << ag::Table::fmt_pct(std::abs(drop))
              << " rel) " << (bad ? "REGRESSION" : "ok") << "\n";
    regressions += bad ? 1 : 0;
  }
  return regressions;
}

/// Gates the packing-bandwidth points on relative GB/s drop, mirroring
/// the efficiency gate. Baselines recorded by schema 1/2 carry no
/// "packing" array: every point lands in `unknown` (never silently
/// passes), and re-recording the baseline covers them.
int compare_packing_against_baseline(const std::vector<PackResult>& packing,
                                     const ag::JsonValue& baseline, double threshold,
                                     std::vector<std::string>* unknown) {
  const ag::JsonValue& base_packing = baseline["packing"];
  int regressions = 0;
  for (const PackResult& p : packing) {
    const ag::JsonValue* match = nullptr;
    if (!base_packing.is_null()) {
      for (const ag::JsonValue& b : base_packing.items())
        if (b["op"].as_string() == p.op && b["trans"].as_string() == p.trans) match = &b;
    }
    const std::string label = std::string("packing ") + p.op + "/" + p.trans;
    if (!match) {
      std::cout << "  " << label << ": no baseline entry (NOT gated)\n";
      if (unknown) unknown->push_back(label);
      continue;
    }
    const double base_gbps = (*match)["gbps"].as_number();
    const double drop = base_gbps > 0 ? (base_gbps - p.gbps) / base_gbps : 0;
    const bool bad = drop > threshold;
    std::cout << "  " << label << ": " << ag::Table::fmt(base_gbps, 2) << " -> "
              << ag::Table::fmt(p.gbps, 2) << " GB/s (" << (drop >= 0 ? "-" : "+")
              << ag::Table::fmt_pct(std::abs(drop)) << " rel) "
              << (bad ? "REGRESSION" : "ok") << "\n";
    regressions += bad ? 1 : 0;
  }
  return regressions;
}

/// Gates the batched points on relative aggregate-Gflops drop, keyed by
/// (label, threads). Baselines from schema 1-3 carry no "batch" array:
/// those points land in `unknown` until the baseline is re-recorded.
int compare_batch_against_baseline(const std::vector<BatchResult>& batches,
                                   const ag::JsonValue& baseline, double threshold,
                                   std::vector<std::string>* unknown) {
  const ag::JsonValue& base_batch = baseline["batch"];
  int regressions = 0;
  for (const BatchResult& p : batches) {
    const ag::JsonValue* match = nullptr;
    if (!base_batch.is_null()) {
      for (const ag::JsonValue& b : base_batch.items())
        if (b["label"].as_string() == p.label &&
            static_cast<int>(b["threads"].as_number()) == p.threads)
          match = &b;
    }
    const std::string label =
        std::string("batch ") + p.label + " threads=" + std::to_string(p.threads);
    if (!match) {
      std::cout << "  " << label << ": no baseline entry (NOT gated)\n";
      if (unknown) unknown->push_back(label);
      continue;
    }
    const double base_gflops = (*match)["gflops"].as_number();
    const double drop = base_gflops > 0 ? (base_gflops - p.gflops) / base_gflops : 0;
    const bool bad = drop > threshold;
    std::cout << "  " << label << ": " << ag::Table::fmt(base_gflops, 2) << " -> "
              << ag::Table::fmt(p.gflops, 2) << " Gflops (" << (drop >= 0 ? "-" : "+")
              << ag::Table::fmt_pct(std::abs(drop)) << " rel) "
              << (bad ? "REGRESSION" : "ok") << "\n";
    regressions += bad ? 1 : 0;
  }
  return regressions;
}

/// Gates the autotune points two ways. Live: tuned Gflops must not trail
/// the same run's default Gflops beyond the threshold (the tuner must
/// never lose to the paper/host defaults it started from). Baseline:
/// tuned Gflops against the previous run's, keyed by (n, threads);
/// schema 1-4 baselines carry no "tune" array, so those land in
/// `unknown` until the baseline is re-recorded.
int compare_tune_against_baseline(const std::vector<TuneResult>& tune,
                                  const ag::JsonValue& baseline, double threshold,
                                  std::vector<std::string>* unknown) {
  const ag::JsonValue& base_tune = baseline["tune"];
  int regressions = 0;
  for (const TuneResult& t : tune) {
    const ag::JsonValue* match = nullptr;
    if (!base_tune.is_null()) {
      for (const ag::JsonValue& b : base_tune.items())
        if (static_cast<std::int64_t>(b["n"].as_number()) == t.n &&
            static_cast<int>(b["threads"].as_number()) == t.threads)
          match = &b;
    }
    const std::string label = "tune n=" + std::to_string(t.n) +
                              " threads=" + std::to_string(t.threads);
    if (!match) {
      std::cout << "  " << label << ": no baseline entry (NOT gated)\n";
      if (unknown) unknown->push_back(label);
      continue;
    }
    const double base_gflops = (*match)["tuned_gflops"].as_number();
    const double drop = base_gflops > 0 ? (base_gflops - t.tuned_gflops) / base_gflops : 0;
    const bool bad = drop > threshold;
    std::cout << "  " << label << ": " << ag::Table::fmt(base_gflops, 2) << " -> "
              << ag::Table::fmt(t.tuned_gflops, 2) << " Gflops (" << (drop >= 0 ? "-" : "+")
              << ag::Table::fmt_pct(std::abs(drop)) << " rel) "
              << (bad ? "REGRESSION" : "ok") << "\n";
    regressions += bad ? 1 : 0;
  }
  return regressions;
}

/// Gates the topology-schedule points on relative speedup drop, keyed
/// by n. The points are deterministic arithmetic, so any drift here is
/// a real scheduling-arithmetic change, not noise; the threshold still
/// applies so intentional model refinements only need a baseline
/// re-record. Schema 1-5 baselines carry no "topology" array: those
/// land in `unknown` until the baseline is re-recorded.
int compare_topology_against_baseline(const std::vector<TopoResult>& topology,
                                      const ag::JsonValue& baseline, double threshold,
                                      std::vector<std::string>* unknown) {
  const ag::JsonValue& base_topo = baseline["topology"];
  int regressions = 0;
  for (const TopoResult& t : topology) {
    const ag::JsonValue* match = nullptr;
    if (!base_topo.is_null()) {
      for (const ag::JsonValue& b : base_topo.items())
        if (static_cast<std::int64_t>(b["n"].as_number()) == t.n) match = &b;
    }
    const std::string label = "topology n=" + std::to_string(t.n);
    if (!match) {
      std::cout << "  " << label << ": no baseline entry (NOT gated)\n";
      if (unknown) unknown->push_back(label);
      continue;
    }
    const double base_speedup = (*match)["speedup"].as_number();
    const double drop = base_speedup > 0 ? (base_speedup - t.speedup) / base_speedup : 0;
    const bool bad = drop > threshold;
    std::cout << "  " << label << ": speedup " << ag::Table::fmt(base_speedup, 3) << " -> "
              << ag::Table::fmt(t.speedup, 3) << " (" << (drop >= 0 ? "-" : "+")
              << ag::Table::fmt_pct(std::abs(drop)) << " rel) "
              << (bad ? "REGRESSION" : "ok") << "\n";
    regressions += bad ? 1 : 0;
  }
  return regressions;
}

/// "MxNxK" (e.g. 2048x64x64) or a bare "N" meaning an NxNxN square.
bool parse_shape(const std::string& token, BenchShape* out) {
  std::int64_t v[3] = {0, 0, 0};
  int idx = 0;
  std::size_t pos = 0;
  while (pos <= token.size() && idx < 3) {
    std::size_t next = token.find('x', pos);
    if (next == std::string::npos) next = token.size();
    try {
      v[idx++] = std::stoll(token.substr(pos, next - pos));
    } catch (...) {
      return false;
    }
    pos = next + 1;
    if (pos > token.size()) break;
  }
  if (idx == 1) {
    out->m = out->n = out->k = v[0];
  } else if (idx == 3) {
    out->m = v[0];
    out->n = v[1];
    out->k = v[2];
  } else {
    return false;
  }
  return out->m > 0 && out->n > 0 && out->k > 0;
}

}  // namespace

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  if (!ag::obs::stats_compiled_in) {
    std::cerr << "regress: library built with -DARMGEMM_STATS=OFF; per-layer counters "
                 "would all read zero\n";
  }

  // Point list: --sizes picks squares, --shapes picks MxNxK points; either
  // flag alone restricts the sweep to exactly what it names. The default
  // sweep mixes the classic large squares with small squares (no-pack
  // fast path) and tall/wide-skinny shapes (2-D dynamic scheduling).
  std::vector<BenchShape> points;
  if (args.has("sizes") || args.has("shapes")) {
    for (std::int64_t n : agbench::size_list(args, {})) {
      if (n <= 0) {
        std::cerr << "regress: --sizes entries must be positive (got " << n << ")\n";
        return 2;
      }
      points.push_back({n, n, n});
    }
    const std::string raw_shapes = args.get("shapes", "");
    std::size_t pos = 0;
    while (pos < raw_shapes.size()) {
      std::size_t next = raw_shapes.find(',', pos);
      if (next == std::string::npos) next = raw_shapes.size();
      BenchShape sh;
      if (!parse_shape(raw_shapes.substr(pos, next - pos), &sh)) {
        std::cerr << "regress: bad --shapes entry \"" << raw_shapes.substr(pos, next - pos)
                  << "\" (want MxNxK or N)\n";
        return 2;
      }
      points.push_back(sh);
      pos = next + 1;
    }
  } else {
    for (std::int64_t n : {std::int64_t{32}, std::int64_t{48}, std::int64_t{64},
                           std::int64_t{128}, std::int64_t{256}, std::int64_t{384}})
      points.push_back({n, n, n});
    points.push_back({2048, 64, 64});  // tall-skinny: many mc blocks, narrow panel
    points.push_back({64, 2048, 64});  // wide-skinny: one mc block, many panels
  }
  if (points.empty()) {
    std::cerr << "regress: empty point list\n";
    return 2;
  }
  const std::vector<int> threads = thread_list(args);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const double threshold = args.get_double("threshold", 0.10);
  const double inject = args.get_double("inject-regression", 1.0);
  for (int t : threads)
    if (t <= 0) {
      std::cerr << "regress: --threads entries must be positive (got " << t << ")\n";
      return 2;
    }
  if (reps <= 0) {
    std::cerr << "regress: --reps must be positive (got " << reps << ")\n";
    return 2;
  }

  ag::obs::CalibrationOptions copts;
  copts.seconds_per_probe = args.get_double("probe-seconds", 0.02);
  copts.fma_chains = static_cast<int>(args.get_int("fma-chains", copts.fma_chains));
  const ag::obs::CalibrationResult cal = ag::obs::calibrate(copts);
  std::cout << "calibrated peak " << ag::Table::fmt(cal.peak_gflops, 2)
            << " Gflops/core (mu " << cal.mu << " s/flop, pi " << cal.pi << " s/word, psi_c "
            << ag::Table::fmt(cal.psi_c, 3) << ", counters "
            << (cal.used_hardware_counters ? "hw" : "fallback") << ")\n";

  std::vector<RunResult> results;
  for (const BenchShape& sh : points)
    for (int t : threads) {
      results.push_back(run_config(sh, t, reps, cal.peak_gflops, inject));
      const RunResult& r = results.back();
      std::cout << shape_label(r.m, r.n, r.k) << " threads=" << r.threads << ": "
                << ag::Table::fmt(r.gflops, 2) << " Gflops, efficiency "
                << ag::Table::fmt_pct(r.efficiency) << "\n";
    }

  const std::vector<PackResult> packing = run_packing_points(reps, inject);
  for (const PackResult& p : packing)
    std::cout << "packing " << p.op << "/" << p.trans << " (" << ag::packing_isa()
              << "): " << ag::Table::fmt(p.gbps, 2) << " GB/s\n";

  const std::vector<BatchResult> batches = run_batch_points(threads, reps, inject);
  for (const BatchResult& b : batches)
    std::cout << "batch " << b.label << " threads=" << b.threads << ": "
              << ag::Table::fmt(b.gflops, 2) << " Gflops, " << ag::Table::fmt(b.speedup, 2)
              << "x vs loop of calls\n";

  const std::vector<TuneResult> tune = run_tune_points(threads, reps, inject);
  int live_tune_failures = 0;
  // The live gate is a coarse tripwire (it has no baseline to average
  // against), so it never tightens below a 25% drop: fine-grained
  // gating belongs to the baseline diff under --threshold.
  const double live_threshold = std::max(threshold, 0.25);
  for (const TuneResult& t : tune) {
    const bool bad = t.ratio < 1.0 - live_threshold;
    std::cout << "tune n=" << t.n << " threads=" << t.threads << ": default "
              << ag::Table::fmt(t.default_gflops, 2) << " -> tuned "
              << ag::Table::fmt(t.tuned_gflops, 2) << " Gflops median (per-pair median "
              << ag::Table::fmt(t.ratio, 2) << "x) "
              << (bad ? "TUNED SLOWER THAN DEFAULT" : "ok") << "\n";
    live_tune_failures += bad ? 1 : 0;
  }

  const std::vector<TopoResult> topology = run_topology_points(inject);
  int live_topo_failures = 0;
  for (const TopoResult& t : topology) {
    // Live gate: on the emulated 2:1 big.LITTLE the weighted schedule
    // must never lose to round-robin. Deterministic arithmetic — no
    // noise margin needed beyond rounding.
    const bool bad = t.speedup < 0.999;
    std::cout << "topology n=" << t.n << " (2big+2little, 2:1): round-robin "
              << ag::Table::fmt(t.round_robin_wall, 1) << " -> weighted "
              << ag::Table::fmt(t.weighted_steal_wall, 1) << " ("
              << ag::Table::fmt(t.speedup, 3) << "x) "
              << (bad ? "WEIGHTED SLOWER THAN ROUND-ROBIN" : "ok") << "\n";
    live_topo_failures += bad ? 1 : 0;
  }

  const std::string out_path =
      args.get("out", "BENCH_" + host_name() + "_" + date_stamp() + ".json");
  {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "regress: cannot write " << out_path << "\n";
      return 2;
    }
    os << report_json(results, packing, batches, tune, topology, cal, reps) << "\n";
  }
  std::cout << "wrote " << out_path << "\n";

  if (live_tune_failures > 0) {
    std::cerr << "regress: " << live_tune_failures
              << " autotune point(s) ran slower tuned than with defaults\n";
    return 1;
  }
  if (live_topo_failures > 0) {
    std::cerr << "regress: " << live_topo_failures
              << " topology point(s) scheduled slower weighted than round-robin\n";
    return 1;
  }

  const std::string baseline_path = args.get("baseline", "");
  if (baseline_path.empty()) return 0;

  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "regress: cannot read baseline " << baseline_path << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const ag::JsonValue baseline = ag::JsonValue::parse(buf.str(), &err);
  if (baseline.is_null()) {
    std::cerr << "regress: baseline parse error: " << err << "\n";
    return 2;
  }
  const std::string base_schema = baseline["schema"].as_string();
  if (base_schema != kSchema && base_schema != kSchemaV5 && base_schema != kSchemaV4 &&
      base_schema != kSchemaV3 && base_schema != kSchemaV2 && base_schema != kSchemaV1) {
    std::cerr << "regress: baseline schema \"" << base_schema << "\" is none of \""
              << kSchema << "\", \"" << kSchemaV5 << "\", \"" << kSchemaV4 << "\", \""
              << kSchemaV3 << "\", \"" << kSchemaV2 << "\", \"" << kSchemaV1 << "\"\n";
    return 2;
  }
  const std::string unknown_mode = args.get("unknown", "warn");
  if (unknown_mode != "warn" && unknown_mode != "fail") {
    std::cerr << "regress: --unknown must be warn or fail (got \"" << unknown_mode
              << "\")\n";
    return 2;
  }
  std::cout << "comparing against " << baseline_path << " (threshold "
            << ag::Table::fmt_pct(threshold) << " relative efficiency drop)\n";
  std::vector<std::string> unknown;
  int regressions = compare_against_baseline(results, baseline, threshold, &unknown);
  regressions += compare_packing_against_baseline(packing, baseline, threshold, &unknown);
  regressions += compare_batch_against_baseline(batches, baseline, threshold, &unknown);
  regressions += compare_tune_against_baseline(tune, baseline, threshold, &unknown);
  regressions += compare_topology_against_baseline(topology, baseline, threshold, &unknown);
  if (!unknown.empty()) {
    // A gate that only checks matched points would silently shrink as the
    // sweep evolves; make the uncovered set loud (and fatal on request).
    std::cerr << "regress: WARNING: " << unknown.size()
              << " configuration(s) have no baseline entry and were not gated:\n";
    for (const std::string& u : unknown) std::cerr << "  " << u << "\n";
    std::cerr << "regress: re-record the baseline to cover them"
              << (unknown_mode == "fail" ? " (--unknown=fail: treating as failure)"
                                         : "")
              << "\n";
  }
  if (regressions > 0) {
    std::cerr << "regress: " << regressions << " configuration(s) regressed\n";
    return 1;
  }
  if (!unknown.empty() && unknown_mode == "fail") return 1;
  std::cout << "no regressions\n";
  return 0;
}
