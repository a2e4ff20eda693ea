// The unpacked small path against the blocked path. For random shapes
// under the small-path threshold (k past kc, m = 1, n = 1 and leading
// dimensions above their minimum among them), dgemm, sgemm and
// dgemm_batch must store exactly the bits the same call stores with the
// small path switched off (ARMGEMM_SMALL_MNK = 0), at 1 and 4 threads,
// for every registered kernel: where the threshold sits may move speed,
// never results. Each test pins the threshold, so the shapes drawn do
// not depend on the environment. Operands are allocated to their exact
// extent, so a sanitizer build catches a read past op(A) or op(B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "common/rng.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/sgemm.hpp"
#include "kernels/microkernel.hpp"
#include "scoped_knobs.hpp"
#include "strided_check.hpp"

using ag::index_t;
using ag::Trans;
using agtest::StoredOperand;

namespace {

struct Shape {
  index_t m, n, k;
};

/// The threshold every test pins: the default.
constexpr index_t kThreshold = 50;

/// A shape with m*n*k under kThreshold^3: m and n are 1 a quarter of the
/// time, and k runs up to 1500 when m*n is small, past every default kc.
Shape small_shape(ag::Xoshiro256& rng) {
  const index_t m = rng.next_below(4) == 0 ? 1 : 1 + static_cast<index_t>(rng.next_below(64));
  const index_t n = rng.next_below(4) == 0 ? 1 : 1 + static_cast<index_t>(rng.next_below(64));
  const index_t kmax = std::min<index_t>(kThreshold * kThreshold * kThreshold / (m * n), 1500);
  return {m, n, 1 + static_cast<index_t>(rng.next_below(kmax))};
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

/// Contexts under test: every registered kernel at 1 and 4 threads, plus
/// blockings whose kc, mc and nc are small, and mc and nc not multiples
/// of the register block, so the small path crosses every blocking
/// boundary of the blocked path's tile grid.
std::vector<ag::Context> contexts() {
  std::vector<ag::Context> out;
  for (const ag::Microkernel& k : ag::all_microkernels())
    for (const int threads : {1, 4}) out.emplace_back(k.name, threads);
  for (const int threads : {1, 4}) {
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

TEST(SmallPath, DgemmBitwiseEqualsBlockedPath) {
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, kThreshold);
  ag::Xoshiro256 rng(4242);
  for (const ag::Context& ctx : contexts()) {
    for (const Combo& cb : combos()) {
      const Shape s = small_shape(rng);
      const Operands<double> op(s, cb, rng);
      const std::string label = describe(ctx.kernel().name + " t=" +
                                             std::to_string(ctx.threads()) + " " +
                                             ctx.block_sizes().to_string(),
                                         s, cb);
      expect_small_matches_blocked<double>(
          s, op.c,
          [&](double* c) {
            ag::dgemm(ag::Layout::ColMajor, cb.ta, cb.tb, s.m, s.n, s.k, cb.alpha,
                      op.a.data.data(), op.a.ld, op.b.data.data(), op.b.ld, cb.beta, c, op.ldc,
                      ctx);
          },
          label);
    }
  }
}

TEST(SmallPath, SgemmBitwiseEqualsBlockedPath) {
  agtest::ScopedKnob threshold(ag::Knob::kSmallMnk, kThreshold);
  ag::Xoshiro256 rng(4343);
  for (const int threads : {1, 4}) {
    for (const index_t kc : {index_t{0}, index_t{16}}) {  // 0: sgemm's default kc
      ag::SgemmOptions opts;
      opts.threads = threads;
      opts.kc = kc;
      for (const Combo& cb : combos()) {
        const Shape s = small_shape(rng);
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
