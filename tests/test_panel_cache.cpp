// Unit tests for the keyed packed-panel cache (core/panel_cache.hpp):
// hit/miss accounting, epoch invalidation, capacity-driven eviction and
// bypass, concurrent first-pack arbitration, and the end-to-end aliasing
// hazard — B mutated in place between two batch calls must never be
// served from a stale panel.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "blas/compare.hpp"
#include "blas/reference_gemm.hpp"
#include "common/matrix.hpp"
#include "core/context.hpp"
#include "core/gemm_batch.hpp"
#include "core/panel_cache.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;
using ag::Matrix;
using ag::PackedPanel;
using ag::PanelCache;
using ag::PanelKey;

namespace {

PanelKey make_key(const double* b, index_t kk, index_t jj, std::uint64_t epoch) {
  PanelKey key;
  key.b = b;
  key.ldb = 64;
  key.trans = ag::Trans::NoTrans;
  key.kk = kk;
  key.jj = jj;
  key.kc = 32;
  key.nc = 48;
  key.nr = 6;
  key.epoch = epoch;
  return key;
}

// Pack callback that fills the panel with a recognizable value.
auto fill_with(double v, int* calls = nullptr) {
  return [v, calls](double* dst) {
    if (calls) ++*calls;
    for (int i = 0; i < 32 * 48; ++i) dst[i] = v;
  };
}

constexpr index_t kElems = 32 * 48;

TEST(PanelCache, MissThenHitThenEpochInvalidation) {
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 8);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  const double* b = reinterpret_cast<const double*>(0x1000);

  int packs = 0;
  auto p1 = cache.get_or_pack(make_key(b, 0, 0, epoch), kElems, fill_with(1.0, &packs));
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(packs, 1);
  EXPECT_EQ(p1->data()[0], 1.0);

  // Same key again: served from cache, pack not called.
  auto p2 = cache.get_or_pack(make_key(b, 0, 0, epoch), kElems, fill_with(2.0, &packs));
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(packs, 1);
  EXPECT_EQ(p2.get(), p1.get());
  EXPECT_EQ(p2->data()[0], 1.0);

  // Different panel coordinates: a distinct entry.
  auto p3 = cache.get_or_pack(make_key(b, 32, 0, epoch), kElems, fill_with(3.0, &packs));
  ASSERT_NE(p3, nullptr);
  EXPECT_EQ(packs, 2);

  PanelCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 2u);

  // New epoch: the map is dropped, the same coordinates miss again, and
  // old shared_ptrs stay valid (in-flight tickets keep panels alive).
  const std::uint64_t epoch2 = cache.begin_epoch();
  ASSERT_NE(epoch2, epoch);
  auto p4 = cache.get_or_pack(make_key(b, 0, 0, epoch2), kElems, fill_with(4.0, &packs));
  ASSERT_NE(p4, nullptr);
  EXPECT_EQ(packs, 3);
  EXPECT_EQ(p4->data()[0], 4.0);
  EXPECT_EQ(p1->data()[0], 1.0);  // evicted but alive through our ref
}

TEST(PanelCache, ZeroCapacityBypassesEverything) {
  agtest::ScopedKnob off(ag::Knob::kPanelCacheMb, 0);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  int packs = 0;
  auto p = cache.get_or_pack(make_key(nullptr, 0, 0, epoch), kElems, fill_with(1.0, &packs));
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(packs, 0);  // caller packs privately; cache never ran the callback
  EXPECT_EQ(cache.stats().bypasses, 1u);
}

TEST(PanelCache, CapacityEvictionIsFifoAndOversizedPanelsBypass) {
  // 1 MiB cap = 131072 doubles; each panel is 1536 doubles (12 KiB), so
  // ~85 fit. Insert 100: the earliest inserted must be evicted.
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 1);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  const double* b = reinterpret_cast<const double*>(0x2000);

  for (int i = 0; i < 100; ++i)
    cache.get_or_pack(make_key(b, 0, 48 * i, epoch), kElems, fill_with(i));
  PanelCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 100u);
  EXPECT_GT(s.evictions, 0u);

  int packs = 0;
  // The first-inserted panel was evicted (FIFO): it misses again.
  cache.get_or_pack(make_key(b, 0, 0, epoch), kElems, fill_with(0.5, &packs));
  EXPECT_EQ(packs, 1);
  // The most recent panel is still resident.
  cache.get_or_pack(make_key(b, 0, 48 * 99, epoch), kElems, fill_with(0.5, &packs));
  EXPECT_EQ(packs, 1);

  // A panel larger than the whole cache can never be admitted.
  cache.reset_stats();
  auto huge = cache.get_or_pack(make_key(b, 64, 0, epoch), 200000, fill_with(9.0));
  EXPECT_EQ(huge, nullptr);
  EXPECT_EQ(cache.stats().bypasses, 1u);
}

TEST(PanelCache, ConcurrentRequestersPackExactlyOnce) {
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 8);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  const double* b = reinterpret_cast<const double*>(0x3000);

  std::atomic<int> packs{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const PackedPanel>> panels(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      panels[static_cast<std::size_t>(t)] =
          cache.get_or_pack(make_key(b, 0, 0, epoch), kElems, [&](double* dst) {
            ++packs;
            for (index_t i = 0; i < kElems; ++i) dst[i] = 7.0;
          });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(packs.load(), 1);  // exactly one packer; everyone else waited
  for (const auto& p : panels) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->data()[0], 7.0);       // publication: bytes visible to waiters
    EXPECT_EQ(p.get(), panels[0].get());  // all the same panel
  }
  PanelCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 7u);
}

// The end-to-end aliasing hazard: batch 1 packs panels of B, the caller
// then mutates B *in place*, and batch 2 presents the same pointer. The
// epoch baked into every key means batch 2 must re-pack and see the new
// bytes — a stale hit here would silently compute with dead data.
TEST(PanelCache, MutatedBBetweenBatchesIsNeverServedStale) {
  agtest::ScopedKnob pack_path(ag::Knob::kSmallMnk, 0);  // force the blocked (cache-using) path
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 64);
  const index_t m = 96, n = 72, k = 64;
  auto a = ag::random_matrix(m, k, 40000);
  auto b = ag::random_matrix(k, n, 40001);
  const auto c0 = ag::random_matrix(m, n, 40002);
  ag::Context ctx(ag::KernelShape{8, 6}, 2);

  ag::GemmBatchEntry e;
  e.m = m;
  e.n = n;
  e.k = k;
  e.alpha = 1.0;
  e.beta = 0.0;
  e.a = a.data();
  e.lda = a.ld();
  e.b = b.data();
  e.ldb = b.ld();
  e.ldc = c0.ld();

  Matrix<double> c1(c0);
  e.c = c1.data();
  ag::dgemm_batch(ag::Layout::ColMajor, &e, 1, ctx);

  // Mutate B in place — same pointer, different bytes.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) b(i, j) = -2.0 * b(i, j) + 1.0;

  Matrix<double> c2(c0);
  e.c = c2.data();
  ag::dgemm_batch(ag::Layout::ColMajor, &e, 1, ctx);

  Matrix<double> expect(c0);
  ag::blocked_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k,
                    1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0, expect.data(), expect.ld());
  const auto cmp =
      ag::compare_gemm_result(c2.view(), expect.view(), k, 1.0, 1.0, 1.0, 0.0, 1.0);
  EXPECT_TRUE(cmp.ok) << "stale panel served after in-place mutation; diff " << cmp.max_diff;

  // And the two runs genuinely differ (the mutation changed the product).
  bool differs = false;
  for (index_t j = 0; j < n && !differs; ++j)
    for (index_t i = 0; i < m && !differs; ++i) differs = c1(i, j) != c2(i, j);
  EXPECT_TRUE(differs);
}

}  // namespace
