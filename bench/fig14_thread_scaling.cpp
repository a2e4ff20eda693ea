// Regenerates Figure 14: OpenBLAS-8x6 performance under 1/2/4/8 threads
// with the per-thread-count block sizes the paper derives (one thread per
// module up to 4 threads, two per module at 8).
//
// Besides the simulated sweep, --native=N[,N...] runs real dgemm calls of
// volume N^3 on this host at each thread count, twice per rep: on the
// blocked path (ARMGEMM_SMALL_MNK = 0) and on the unpacked small path
// (the knob at N). As in a serving stream, successive calls vary in
// shape (N^3 and the rotations of 2N x N x N/2) and transposes, and
// their operands rotate through copies larger than L2. Reps interleave
// the two paths and the thread counts, and each cell is the median of
// --reps reps of one call's time. The table also gives the blocked
// path's barrier-wait share: summed per-rank barrier seconds over the
// thread-seconds of the ranks that ran (GemmStats), the figure of merit
// for the hybrid spin barrier and the one-barrier-per-panel packing
// pipeline. The last line names the largest N at which the small path
// beat the blocked path at the most threads measured: the crossover
// ARMGEMM_SMALL_MNK's default is read from.
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/block_sizes.hpp"
#include "core/gemm.hpp"
#include "model/machine.hpp"
#include "obs/gemm_stats.hpp"
#include "sim/timing.hpp"

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// One size at one thread count: per-call seconds of every rep on each
// path, and the blocked path's barrier-wait share.
struct NativePoint {
  std::vector<double> blocked_s, small_s;
  double barrier_share = 0;  // barrier seconds / thread-seconds of the ranks that ran
};

// Operands rotate through disjoint copies spanning this many bytes, more
// than a core's L2, so each call starts with A, B and C out of L1 and L2
// as the calls of a serving stream do.
constexpr double kRotationBytes = 16e6;

// Seconds of back-to-back calls in one timed rep, so a pool's wake-up
// after another context ran is amortized as it is in a steady stream of
// calls. Reps of 0.2 ms put the crossover at 96 or above: their times
// were mostly the wake-up.
constexpr double kRepSeconds = 2e-3;

// The 16 calls a rotation cycles through for size n: four shapes of
// volume n^3 (the cube and the three rotations of 2n x n x n/2, since
// serving calls are rarely square) times the four transpose pairs.
struct Shape {
  std::int64_t m, n, k;
  ag::Trans ta, tb;
};
Shape shape_of(std::int64_t n, std::int64_t i) {
  const std::int64_t h = std::max<std::int64_t>(1, n / 2);
  const std::int64_t dims[4][3] = {{n, n, n}, {2 * n, n, h}, {h, 2 * n, n}, {n, h, 2 * n}};
  const auto& d = dims[i % 4];
  return {d[0], d[1], d[2], i / 4 % 2 ? ag::Trans::Trans : ag::Trans::NoTrans,
          i / 8 % 2 ? ag::Trans::Trans : ag::Trans::NoTrans};
}

struct NativeCase {
  std::int64_t n;
  std::int64_t slots;  // operand copies in the rotation, a multiple of 16
  std::int64_t next = 0;
  ag::Matrix<double> a, b, c;  // slot s starts at element s * 2n^2 of each
  std::vector<int> threads;
  std::vector<ag::Context> ctx;
  std::vector<NativePoint> points;
  int calls = 1;  // calls per timed rep, so a rep spans well above clock granularity

  NativeCase(std::int64_t size, const std::vector<int>& thread_counts)
      : n(size),
        slots(16 * std::max<std::int64_t>(
                       1, static_cast<std::int64_t>(kRotationBytes /
                                                    (16 * 3.0 * 8.0 * 2 * size * size)))),
        a(ag::random_matrix(2 * size * size, slots, 1)),
        b(ag::random_matrix(2 * size * size, slots, 2)),
        c(ag::random_matrix(2 * size * size, slots, 3)),
        threads(thread_counts),
        points(thread_counts.size()) {
    for (const int t : threads) ctx.emplace_back(ag::KernelShape{8, 6}, t);
  }

  // Successive calls take the next operand copy and the next of the 16
  // shapes and transpose pairs.
  void call(const ag::Context& cx) {
    const std::int64_t off = next * 2 * n * n;
    const Shape s = shape_of(n, next);
    next = (next + 1) % slots;
    const std::int64_t lda = s.ta == ag::Trans::NoTrans ? s.m : s.k;
    const std::int64_t ldb = s.tb == ag::Trans::NoTrans ? s.k : s.n;
    ag::dgemm(ag::Layout::ColMajor, s.ta, s.tb, s.m, s.n, s.k, 1.0, a.data() + off, lda,
              b.data() + off, ldb, 1.0, c.data() + off, s.m, cx);
  }

  // Seconds per call of `calls` back-to-back calls on path `small`.
  double time_calls(const ag::Context& cx, bool small) {
    ag::set_knob(ag::Knob::kSmallMnk, small ? n : 0);
    ag::Timer t;
    for (int i = 0; i < calls; ++i) call(cx);
    return t.seconds() / calls;
  }
};

// Runs every case interleaved: each rep visits every size, thread count
// and path once, alternating which path goes first; a rep is
// kRepSeconds of calls.
void run_native(std::vector<NativeCase>& cases, int reps) {
  const std::string knob = ag::knob_text(ag::Knob::kSmallMnk);
  for (NativeCase& nc : cases) {
    // Warm both paths (pool start, scratch growth, page faults), then size
    // a rep.
    for (const ag::Context& cx : nc.ctx) {
      nc.time_calls(cx, true);
      nc.time_calls(cx, false);
    }
    const double one = nc.time_calls(nc.ctx.front(), false);
    nc.calls =
        static_cast<int>(std::clamp(kRepSeconds / std::max(one, 1e-9), 1.0, 100000.0));
  }
  for (int rep = 0; rep < reps; ++rep)
    for (NativeCase& nc : cases)
      for (std::size_t t = 0; t < nc.ctx.size(); ++t)
        for (const bool small : {rep % 2 == 0, rep % 2 != 0})
          (small ? nc.points[t].small_s : nc.points[t].blocked_s)
              .push_back(nc.time_calls(nc.ctx[t], small));

  // Barrier share of the blocked path, from one instrumented pass. The
  // driver clamps its ranks to the blocks a panel offers, so the ranks
  // that ran are the ones that recorded anything in the pass, not the
  // context's thread count.
  ag::set_knob(ag::Knob::kSmallMnk, 0);
  for (NativeCase& nc : cases)
    for (std::size_t t = 0; t < nc.ctx.size(); ++t) {
      ag::obs::GemmStats stats;
      nc.ctx[t].set_stats(&stats);
      for (int i = 0; i < reps; ++i) nc.call(nc.ctx[t]);
      nc.ctx[t].set_stats(nullptr);
      const auto totals = stats.totals();
      const double thread_seconds =
          totals.total_seconds * static_cast<double>(stats.per_thread().size());
      nc.points[t].barrier_share =
          thread_seconds > 0 ? totals.barrier_seconds / thread_seconds : 0;
    }
  ag::set_knob(ag::Knob::kSmallMnk, knob);
}

}  // namespace

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  agbench::banner("Figure 14", "OpenBLAS-8x6 under 1/2/4/8 threads");

  std::vector<std::int64_t> sizes;
  for (std::int64_t s = 512; s <= 6656; s += 512) sizes.push_back(s);
  sizes = agbench::size_list(args, sizes);

  std::cout << "\nBlock sizes per thread count (paper's Figure 14 labels):\n";
  for (int threads : {1, 2, 4, 8})
    std::cout << "  " << threads << " thread(s): "
              << ag::paper_block_sizes({8, 6}, threads).to_string() << "\n";

  ag::Table t({"size", "1 thread", "2 threads", "4 threads", "8 threads",
               "speedup@8 (x)"});
  for (auto size : sizes) {
    std::vector<std::string> row{std::to_string(size)};
    double g1 = 0, g8 = 0;
    for (int threads : {1, 2, 4, 8}) {
      const auto bs = ag::paper_block_sizes({8, 6}, threads);
      const auto e = ag::sim::estimate_dgemm(ag::model::xgene(), bs, size, threads);
      if (threads == 1) g1 = e.gflops;
      if (threads == 8) g8 = e.gflops;
      row.push_back(ag::Table::fmt(e.gflops, 2));
    }
    row.push_back(ag::Table::fmt(g8 / g1, 2));
    t.add_row(row);
  }
  agbench::emit(args, t);
  std::cout << "\nPaper: scalable across thread counts, 32.7 Gflops peak at 8 threads.\n";

  const std::vector<std::int64_t> native = agbench::size_list(args, {}, "native");
  if (!native.empty()) {
    const int reps = static_cast<int>(std::max<std::int64_t>(1, args.get_int("reps", 31)));
    // 1, 2, 4, 8 threads up to the host's cpu count, and the cpu count.
    const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<int> thread_counts;
    for (const int count : {1, 2, 4, 8})
      if (count < hw) thread_counts.push_back(count);
    thread_counts.push_back(hw);
    std::vector<NativeCase> cases;
    cases.reserve(native.size());
    for (const std::int64_t n : native) cases.emplace_back(n, thread_counts);
    run_native(cases, reps);

    std::cout << "\nNative dgemm of volume n^3 on this host: median of " << reps
              << " interleaved reps per cell, blocked path (ARMGEMM_SMALL_MNK=0) against\n"
              << "the unpacked small path (ARMGEMM_SMALL_MNK=N); barrier share of the\n"
              << "blocked path over the ranks that ran:\n";
    ag::Table nt({"n", "threads", "blocked us", "small us", "small/blocked", "blocked Gflops",
                  "barrier share"});
    std::int64_t crossover = 0;
    bool beaten = false;
    for (const NativeCase& nc : cases) {
      for (std::size_t i = 0; i < nc.threads.size(); ++i) {
        const double blocked = median(nc.points[i].blocked_s);
        const double small = median(nc.points[i].small_s);
        double flops = 0;  // per call, averaged over the 16-call cycle
        for (std::int64_t call = 0; call < 16; ++call) {
          const Shape sh = shape_of(nc.n, call);
          flops += 2.0 * static_cast<double>(sh.m) * sh.n * sh.k / 16;
        }
        nt.add_row({std::to_string(nc.n), std::to_string(nc.threads[i]),
                    ag::Table::fmt(blocked * 1e6, 2), ag::Table::fmt(small * 1e6, 2),
                    ag::Table::fmt(blocked > 0 ? small / blocked : 0, 3),
                    ag::Table::fmt(blocked > 0 ? flops / blocked * 1e-9 : 0, 2),
                    ag::Table::fmt_pct(nc.points[i].barrier_share)});
        if (i + 1 == nc.threads.size()) {
          if (small < blocked && !beaten)
            crossover = nc.n;
          else
            beaten = true;
        }
      }
    }
    agbench::emit(args, nt);
    std::cout << "Small path faster than the " << thread_counts.back()
              << "-thread blocked path at every listed n up to: " << crossover << "\n";
    if (!ag::obs::stats_compiled_in)
      std::cout << "(stats compiled out: barrier shares read zero)\n";
  }
  return 0;
}
