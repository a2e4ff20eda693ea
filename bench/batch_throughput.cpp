// Batch-vs-loop throughput: the experiment behind the batch API — submit
// `count` uniform GEMMs as ONE dgemm_strided_batch call (persistent pool,
// no per-entry fork/join, shared packed-B panels) and compare against the
// same entries issued as a loop of dgemm calls (one pool gang each).
//
//   batch_throughput                          # default shape sweep
//   batch_throughput --shape=64x64x64 --count=64 --threads=1,4
//   batch_throughput --reps=20 --cache-mb=0   # panel sharing off
//   batch_throughput --metrics-out=m.prom     # telemetry on; dump exposition
//   batch_throughput --trace-out=t.json       # Chrome trace of one batch call
//
// Reports aggregate Gflops for both modes and the batch/loop speedup.
// The small-entry regime is where the batch path earns its keep: per-call
// fork/join overhead is amortized once across the whole batch.
//
// --metrics-out runs the sweep with serving telemetry enabled (injected
// model, so no calibration stall) and writes the Prometheus + JSON
// exposition afterwards — scheduler and panel-cache sections included,
// ready for `armgemm-top --once`. --trace-out re-runs the last sweep
// point once with a Tracer attached and writes the per-ticket scheduling
// timeline (worker lanes, steal/cache args, queue-depth counters).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "model/perf_model.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"

namespace {

struct Point {
  std::int64_t m, n, k, count;
};

bool parse_shape(const std::string& token, Point* out) {
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
  if (idx == 1) v[1] = v[2] = v[0];
  else if (idx != 3) return false;
  out->m = v[0];
  out->n = v[1];
  out->k = v[2];
  return out->m > 0 && out->n > 0 && out->k > 0;
}

}  // namespace

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 10));
  const std::int64_t cache_mb = args.get_int("cache-mb", ag::panel_cache_mb());
  ag::set_knob(ag::Knob::kPanelCacheMb, cache_mb);
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");

  if (!metrics_out.empty()) {
    // Telemetry on for the whole sweep: inject the model (no calibration
    // stall) and suppress knob-path dumps; we write explicitly at the end.
    ag::set_knob(ag::Knob::kMetricsPath, "");
    ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
    ag::obs::telemetry_enable();
  }

  std::vector<Point> points;
  if (args.has("shape")) {
    Point p{0, 0, 0, args.get_int("count", 64)};
    if (!parse_shape(args.get("shape", ""), &p)) {
      std::cerr << "batch_throughput: bad --shape (want MxNxK or N)\n";
      return 2;
    }
    points.push_back(p);
  } else {
    points.push_back({64, 64, 64, 64});    // the acceptance point: 64 x 64^3
    points.push_back({32, 32, 32, 128});   // tinier entries, deeper queue
    points.push_back({512, 48, 48, 8});    // tall-skinny, shared-B panels
    points.push_back({256, 256, 256, 8});  // big entries: both modes compute-bound
  }

  std::vector<int> threads;
  {
    const std::string raw = args.get("threads", "1,2,4,8");
    std::size_t pos = 0;
    while (pos < raw.size()) {
      std::size_t next = raw.find(',', pos);
      if (next == std::string::npos) next = raw.size();
      threads.push_back(std::stoi(raw.substr(pos, next - pos)));
      pos = next + 1;
    }
  }

  std::cout << "panel cache " << cache_mb << " MiB, reps " << reps << " (best-of)\n";
  std::cout << "shape            count thr   batch Gflops    loop Gflops   speedup\n";
  for (const Point& pt : points) {
    const std::int64_t stride_a = pt.m * pt.k, stride_c = pt.m * pt.n;
    auto a = ag::random_matrix(pt.m, pt.k * pt.count, 1);
    auto b = ag::random_matrix(pt.k, pt.n, 2);  // one B shared by every entry
    auto c = ag::random_matrix(pt.m, pt.n * pt.count, 3);
    const double flops = 2.0 * static_cast<double>(pt.m) * static_cast<double>(pt.n) *
                         static_cast<double>(pt.k) * static_cast<double>(pt.count);
    for (int t : threads) {
      ag::Context ctx(ag::KernelShape{8, 6}, t);
      const auto batch_call = [&] {
        ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans,
                                pt.m, pt.n, pt.k, 1.0, a.data(), pt.m, stride_a, b.data(),
                                b.ld(), 0, 1.0, c.data(), pt.m, stride_c, pt.count, ctx);
      };
      const auto loop_call = [&] {
        for (std::int64_t i = 0; i < pt.count; ++i)
          ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, pt.m, pt.n,
                    pt.k, 1.0, a.data() + i * stride_a, pt.m, b.data(), b.ld(), 1.0,
                    c.data() + i * stride_c, pt.m, ctx);
      };
      batch_call();  // warm-up both paths (pool spin-up, page-in)
      loop_call();
      double batch_s = 1e300, loop_s = 1e300;
      for (int r = 0; r < reps; ++r) {
        ag::Timer tb;
        batch_call();
        batch_s = std::min(batch_s, tb.seconds());
        ag::Timer tl;
        loop_call();
        loop_s = std::min(loop_s, tl.seconds());
      }
      std::printf("%5lldx%lldx%-6lld %5lld %3d %14.2f %14.2f %8.2fx\n",
                  static_cast<long long>(pt.m), static_cast<long long>(pt.n),
                  static_cast<long long>(pt.k), static_cast<long long>(pt.count), t,
                  flops / batch_s * 1e-9, flops / loop_s * 1e-9, loop_s / batch_s);
    }
  }

  if (!trace_out.empty()) {
    // One traced batch call at the last sweep point with the widest gang:
    // enough concurrency that the trace shows real lanes, steals and
    // queue-depth movement rather than a caller-only timeline.
    const Point& pt = points.back();
    const int t = *std::max_element(threads.begin(), threads.end());
    const std::int64_t stride_a = pt.m * pt.k, stride_c = pt.m * pt.n;
    auto a = ag::random_matrix(pt.m, pt.k * pt.count, 11);
    auto b = ag::random_matrix(pt.k, pt.n, 12);
    auto c = ag::random_matrix(pt.m, pt.n * pt.count, 13);
    ag::obs::Tracer tracer;
    ag::obs::GemmStats stats;
    stats.set_tracer(&tracer);
    ag::Context ctx(ag::KernelShape{8, 6}, t);
    ctx.set_stats(&stats);
    ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, pt.m,
                            pt.n, pt.k, 1.0, a.data(), pt.m, stride_a, b.data(), b.ld(), 0, 1.0,
                            c.data(), pt.m, stride_c, pt.count, ctx);
    ctx.set_stats(nullptr);
    std::ofstream os(trace_out);
    if (!os) {
      std::cerr << "batch_throughput: cannot write " << trace_out << "\n";
      return 1;
    }
    tracer.write_json(os);
    std::cout << "trace: " << trace_out << " (" << pt.count << " entries of " << pt.m << "x"
              << pt.n << "x" << pt.k << ", " << t << " threads)\n";
  }

  if (!metrics_out.empty()) {
    if (ag::obs::telemetry_write_metrics(metrics_out) != 0) {
      std::cerr << "batch_throughput: cannot write " << metrics_out << "\n";
      return 1;
    }
    std::cout << "metrics: " << metrics_out << " (+ .json)\n";
  }
  return 0;
}
