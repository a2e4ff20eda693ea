// The unpacked small path against the blocked path. For random shapes
// under the small-path threshold (k past kc, m = 1, n = 1 and leading
// dimensions above their minimum among them), dgemm, sgemm and
// dgemm_batch must store exactly the bits the same call stores with the
// small path switched off (ARMGEMM_SMALL_MNK = 0), for every registered
// kernel: where the threshold sits may move speed, never results. Calls
// up to 50^3 run serially; above it the small path runs on the context's
// ranks, so those shapes run at 2 and 4 threads, wider than one nc panel
// among them, and the flight recorder shows which schedule and how many
// ranks each call took. Each test pins the threshold, so the shapes drawn
// do not depend on the environment. Operands are allocated to their
// exact extent, so a sanitizer build catches a read past op(A) or op(B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "common/rng.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/sgemm.hpp"
#include "kernels/microkernel.hpp"
#include "obs/telemetry.hpp"
#include "scoped_knobs.hpp"
#include "strided_check.hpp"

using ag::index_t;
using ag::Trans;
using agtest::StoredOperand;

namespace {

struct Shape {
  index_t m, n, k;
};

/// The threshold the serial-shape tests pin: the serial floor, up to
/// which the small path runs on the caller alone at any thread count.
constexpr index_t kThreshold = 50;

/// The threshold the multi-rank tests pin: the default.
constexpr index_t kDefaultThreshold = 224;

/// A shape with m*n*k under kThreshold^3: m and n are 1 a quarter of the
/// time, and k runs up to 1500 when m*n is small, past every default kc.
Shape small_shape(ag::Xoshiro256& rng) {
  const index_t m = rng.next_below(4) == 0 ? 1 : 1 + static_cast<index_t>(rng.next_below(64));
  const index_t n = rng.next_below(4) == 0 ? 1 : 1 + static_cast<index_t>(rng.next_below(64));
  const index_t kmax = std::min<index_t>(kThreshold * kThreshold * kThreshold / (m * n), 1500);
  return {m, n, 1 + static_cast<index_t>(rng.next_below(kmax))};
}

/// A shape with kThreshold^3 < m*n*k <= kDefaultThreshold^3, run on the
/// context's ranks: m and n up to 96 (1 an eighth of the time) and k up
/// to 400, redrawn until the volume is in range.
Shape multi_rank_shape(ag::Xoshiro256& rng) {
  const auto dim = [&](index_t hi) {
    return rng.next_below(8) == 0 ? index_t{1} : 1 + static_cast<index_t>(rng.next_below(hi));
  };
  for (;;) {
    const Shape s{dim(96), dim(96), 1 + static_cast<index_t>(rng.next_below(400))};
    if (s.m * s.n * s.k > kThreshold * kThreshold * kThreshold) return s;
  }
}

/// A shape wider than one nc panel of `bs` just above the serial floor:
/// n is one and a half panels, m a few rows.
Shape wide_shape(const ag::BlockSizes& bs) {
  const index_t n = bs.nc + bs.nc / 2 + 5, m = 3;
  return {m, n, kThreshold * kThreshold * kThreshold / (m * n) + 1};
}

/// The 24 (trans_a, trans_b, alpha, beta) combinations each suite covers.
struct Combo {
  Trans ta, tb;
  double alpha, beta;
};
std::vector<Combo> combos() {
  std::vector<Combo> out;
  for (const Trans ta : {Trans::NoTrans, Trans::Trans})
    for (const Trans tb : {Trans::NoTrans, Trans::Trans})
      for (const double alpha : {1.0, -0.75})
        for (const double beta : {0.0, 1.0, -0.5}) out.push_back({ta, tb, alpha, beta});
  return out;
}

/// One call's operands; C has ldc = m + 4 and is NaN where beta == 0
/// must not read it.
template <typename T>
struct Operands {
  StoredOperand<T> a, b;
  index_t ldc;
  std::vector<T> c;

  Operands(const Shape& s, const Combo& cb, ag::Xoshiro256& rng)
      : a(cb.ta, s.m, s.k, 3, rng), b(cb.tb, s.k, s.n, 2, rng), ldc(s.m + 4) {
    c.resize(static_cast<std::size_t>(ldc * (s.n - 1) + s.m));
    for (T& v : c)
      v = cb.beta == 0.0 ? std::numeric_limits<T>::quiet_NaN()
                         : static_cast<T>(rng.uniform(-1, 1));
  }
};

/// Runs `call(c)` on the small path and again with it switched off, and
/// expects the same bytes.
template <typename T, typename Call>
void expect_small_matches_blocked(const Shape& s, const std::vector<T>& c0, Call&& call,
                                  const std::string& label) {
  ASSERT_TRUE(ag::use_small_gemm(s.m, s.n, s.k)) << label;
  std::vector<T> c_small = c0, c_blocked = c0;
  call(c_small.data());
  {
    agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
    call(c_blocked.data());
  }
  EXPECT_EQ(std::memcmp(c_small.data(), c_blocked.data(), c0.size() * sizeof(T)), 0) << label;
}

std::string describe(const std::string& who, const Shape& s, const Combo& cb) {
  return who + " " + std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k) + " ta=" + std::to_string(static_cast<int>(cb.ta)) +
         " tb=" + std::to_string(static_cast<int>(cb.tb)) + " alpha=" +
         std::to_string(cb.alpha) + " beta=" + std::to_string(cb.beta);
}

/// Contexts under test: every registered kernel at each thread count,
/// plus blockings whose kc, mc and nc are small, and mc and nc not
/// multiples of the register block, so the small path crosses every
/// blocking boundary of the blocked path's tile grid.
std::vector<ag::Context> contexts(const std::vector<int>& thread_counts) {
  std::vector<ag::Context> out;
  for (const ag::Microkernel& k : ag::all_microkernels())
    for (const int threads : thread_counts) out.emplace_back(k.name, threads);
  for (const int threads : thread_counts) {
    ag::BlockSizes odd;  // 8x6, mc and nc off the register grid
    odd.kc = 16;
    odd.mc = 20;
    odd.nc = 14;
    out.emplace_back(ag::KernelShape{8, 6}, threads).set_block_sizes(odd);
    ag::BlockSizes tiny;
    tiny.mr = tiny.nr = 4;
    tiny.kc = 8;
    tiny.mc = 12;
    tiny.nc = 16;
    out.emplace_back(ag::KernelShape{4, 4}, threads).set_block_sizes(tiny);
  }
  return out;
}

/// The bitwise tests' two sweeps. Up to the serial floor every call runs
/// on the caller, at 1 and 4 threads. Between the floor and the default
/// each call's tiles are cut into tickets that run on whichever ranks
/// claim them, at 2 and 4 threads; every C element must still see the
/// blocked path's kernel calls in its kc order.
struct Sweep {
  index_t threshold;  // ARMGEMM_SMALL_MNK for the sweep
  std::vector<int> threads;
  bool above_floor;    // multi_rank_shape, else small_shape
  std::uint64_t seed;  // dgemm's; sgemm draws from seed + 101
};
const Sweep kSweeps[] = {{kThreshold, {1, 4}, false, 4242},
                         {kDefaultThreshold, {2, 4}, true, 4545}};

Shape sweep_shape(const Sweep& sw, ag::Xoshiro256& rng) {
  return sw.above_floor ? multi_rank_shape(rng) : small_shape(rng);
}

TEST(SmallPath, DgemmBitwiseEqualsBlockedPath) {
  for (const Sweep& sw : kSweeps) {
    agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, sw.threshold);
    ag::Xoshiro256 rng(sw.seed);
    for (const ag::Context& ctx : contexts(sw.threads)) {
      const std::string who = ctx.kernel().name + " t=" + std::to_string(ctx.threads()) + " " +
                              ctx.block_sizes().to_string();
      const std::vector<Combo> cbs = combos();
      for (std::size_t i = 0; i < cbs.size(); ++i) {
        const Combo& cb = cbs[i];
        // Above the floor every fourth call is wider than one nc panel.
        const Shape s = sw.above_floor && i % 4 == 3 ? wide_shape(ctx.block_sizes())
                                                     : sweep_shape(sw, rng);
        const Operands<double> op(s, cb, rng);
        expect_small_matches_blocked<double>(
            s, op.c,
            [&](double* c) {
              ag::dgemm(ag::Layout::ColMajor, cb.ta, cb.tb, s.m, s.n, s.k, cb.alpha,
                        op.a.data.data(), op.a.ld, op.b.data.data(), op.b.ld, cb.beta, c,
                        op.ldc, ctx);
            },
            describe(who, s, cb));
      }
    }
  }
}

TEST(SmallPath, SgemmBitwiseEqualsBlockedPath) {
  for (const Sweep& sw : kSweeps) {
    agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, sw.threshold);
    ag::Xoshiro256 rng(sw.seed + 101);
    for (const int threads : sw.threads) {
      for (const index_t kc : {index_t{0}, index_t{16}}) {  // 0: sgemm's default kc
        ag::SgemmOptions opts;
        opts.threads = threads;
        opts.kc = kc;
        for (const Combo& cb : combos()) {
          const Shape s = sweep_shape(sw, rng);
          const Operands<float> op(s, cb, rng);
          expect_small_matches_blocked<float>(
              s, op.c,
              [&](float* c) {
                ag::sgemm(ag::Layout::ColMajor, cb.ta, cb.tb, s.m, s.n, s.k,
                          static_cast<float>(cb.alpha), op.a.data.data(), op.a.ld,
                          op.b.data.data(), op.b.ld, static_cast<float>(cb.beta), c, op.ldc,
                          opts);
              },
              describe("sgemm t=" + std::to_string(threads) + " kc=" + std::to_string(kc), s,
                       cb));
        }
      }
    }
  }
}

/// Turns serving telemetry on for one test, with a fixed model so it never
/// calibrates, and off again after.
class SmallPathFlight : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ag::obs::stats_compiled_in) GTEST_SKIP() << "built with -DARMGEMM_STATS=OFF";
    ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
    ag::obs::telemetry_enable();
    ag::obs::telemetry_reset();
  }
  void TearDown() override {
    if (!ag::obs::stats_compiled_in) return;
    ag::obs::telemetry_disable();
    ag::obs::telemetry_reset();
  }

  /// Runs `calls` dgemm calls of shape `s` on `ctx` and returns their
  /// flight records.
  static std::vector<ag::obs::CallRecord> record(const ag::Context& ctx, const Shape& s,
                                                 int calls) {
    ag::obs::telemetry_reset();
    ag::Xoshiro256 rng(4747);
    const Operands<double> op(s, {Trans::NoTrans, Trans::NoTrans, 1.0, 0.0}, rng);
    std::vector<double> c = op.c;
    for (int i = 0; i < calls; ++i)
      ag::dgemm(ag::Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, s.m, s.n, s.k, 1.0,
                op.a.data.data(), op.a.ld, op.b.data.data(), op.b.ld, 0.0, c.data(), op.ldc,
                ctx);
    return ag::obs::telemetry_snapshot().flight;
  }
};

TEST_F(SmallPathFlight, SmallCallsAboveTheFloorRunOnTheContextsRanks) {
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, kDefaultThreshold);
  // Workers that never park see every region, so some call finds one.
  agtest::ScopedKnob spin(ag::Knob::kSpinUs, 1'000'000);
  const ag::Context ctx(ag::KernelShape{8, 6}, 4);
  int most = 0;
  for (int round = 0; round < 25 && most < 2; ++round) {
    const std::vector<ag::obs::CallRecord> flight = record(ctx, {96, 96, 96}, 20);
    ASSERT_EQ(flight.size(), 20u);
    for (const ag::obs::CallRecord& rec : flight) {
      EXPECT_EQ(rec.schedule, ag::obs::ScheduleKind::kSmall);
      EXPECT_GE(rec.threads, 1);
      EXPECT_LE(rec.threads, ctx.threads());
      most = std::max(most, rec.threads);
    }
  }
  EXPECT_GE(most, 2) << "no 96^3 call of 500 ran a ticket on a worker";
}

TEST_F(SmallPathFlight, SmallCallsAtTheFloorRunOnOneRank) {
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, kDefaultThreshold);
  const ag::Context ctx(ag::KernelShape{8, 6}, 4);
  for (const Shape& s : {Shape{50, 50, 50}, Shape{25, 100, 50}, Shape{1, 1, 125000}}) {
    for (const ag::obs::CallRecord& rec : record(ctx, s, 8)) {
      EXPECT_EQ(rec.schedule, ag::obs::ScheduleKind::kSmall);
      EXPECT_EQ(rec.threads, 1) << s.m << "x" << s.n << "x" << s.k;
    }
  }
}

TEST(SmallPath, BatchSmallTicketsBitwiseEqualBlockedTickets) {
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, kThreshold);
  ag::Xoshiro256 rng(4444);
  for (const int threads : {1, 4}) {
    const ag::Context ctx(ag::KernelShape{8, 6}, threads);
    std::vector<Shape> shapes;
    std::vector<Operands<double>> ops;
    std::vector<ag::GemmBatchEntry> entries;
    const std::vector<Combo> cbs = combos();
    for (const Combo& cb : cbs) {
      shapes.push_back(small_shape(rng));
      ops.emplace_back(shapes.back(), cb, rng);
      ASSERT_TRUE(ag::use_small_gemm(shapes.back().m, shapes.back().n, shapes.back().k));
    }
    std::vector<std::vector<double>> c_small, c_blocked;
    for (const Operands<double>& op : ops) {
      c_small.push_back(op.c);
      c_blocked.push_back(op.c);
    }
    const auto run = [&](std::vector<std::vector<double>>& cs) {
      entries.clear();
      for (std::size_t i = 0; i < cbs.size(); ++i) {
        ag::GemmBatchEntry e;
        e.trans_a = cbs[i].ta;
        e.trans_b = cbs[i].tb;
        e.m = shapes[i].m;
        e.n = shapes[i].n;
        e.k = shapes[i].k;
        e.alpha = cbs[i].alpha;
        e.a = ops[i].a.data.data();
        e.lda = ops[i].a.ld;
        e.b = ops[i].b.data.data();
        e.ldb = ops[i].b.ld;
        e.beta = cbs[i].beta;
        e.c = cs[i].data();
        e.ldc = ops[i].ldc;
        entries.push_back(e);
      }
      ag::dgemm_batch(ag::Layout::ColMajor, entries.data(),
                      static_cast<index_t>(entries.size()), ctx);
    };
    run(c_small);
    {
      agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
      run(c_blocked);
    }
    for (std::size_t i = 0; i < cbs.size(); ++i)
      EXPECT_EQ(std::memcmp(c_small[i].data(), c_blocked[i].data(),
                            c_small[i].size() * sizeof(double)),
                0)
          << describe("batch t=" + std::to_string(threads), shapes[i], cbs[i]);
  }
}

}  // namespace
