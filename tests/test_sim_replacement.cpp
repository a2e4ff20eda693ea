// Replacement-policy tests: tree-PLRU and random policies behave
// correctly (hit/miss accounting, victimisation properties) and the
// residency conclusions of the paper's LRU analysis degrade gracefully
// under weaker policies.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/machine.hpp"
#include "sim/cache.hpp"

using ag::model::CacheGeometry;
using ag::model::Replacement;
using ag::sim::addr_t;
using ag::sim::Cache;

namespace {
CacheGeometry tiny(Replacement policy) {
  CacheGeometry g{512, 2, 64};
  g.policy = policy;
  return g;
}
}  // namespace

TEST(PlruTest, HitsAndMissesCounted) {
  Cache c("plru", tiny(Replacement::TreePlru));
  EXPECT_FALSE(c.access(0x0, false));
  EXPECT_TRUE(c.access(0x0, false));
  EXPECT_EQ(c.stats().read_misses, 1u);
}

TEST(PlruTest, TwoWayPlruEqualsLru) {
  // With associativity 2, tree-PLRU and LRU are identical.
  Cache plru("plru", tiny(Replacement::TreePlru));
  Cache lru("lru", tiny(Replacement::Lru));
  const addr_t seq[] = {0x0, 0x100, 0x0, 0x200, 0x100, 0x0, 0x300, 0x200};
  for (addr_t a : seq) {
    EXPECT_EQ(plru.access(a, false), lru.access(a, false)) << std::hex << a;
  }
  EXPECT_EQ(plru.stats().misses(), lru.stats().misses());
}

TEST(PlruTest, FourWayVictimIsNotMru) {
  CacheGeometry g{1024, 4, 64};  // 4 sets x 4 ways
  g.policy = Replacement::TreePlru;
  Cache c("plru4", g);
  // Fill set 0 (set stride 256).
  for (int i = 0; i < 4; ++i) c.access(static_cast<addr_t>(i) * 0x100, false);
  c.access(0x300, false);  // touch way holding 0x300: it becomes protected
  c.access(0x400, false);  // new line: victim must not be 0x300
  EXPECT_TRUE(c.contains(0x300));
}

TEST(RandomTest, DeterministicAcrossRuns) {
  auto run = [] {
    Cache c("rnd", tiny(Replacement::Random));
    for (int i = 0; i < 64; ++i)
      c.access(static_cast<addr_t>(i % 6) * 0x100, false);
    return c.stats().misses();
  };
  EXPECT_EQ(run(), run());
}

TEST(RandomTest, ThrashesResidentSetMoreThanLru) {
  // The Eq. (15) scenario: 24 KB resident + a 4 KB stream in a 32K/4-way
  // cache. Under LRU the resident set survives; under random it erodes.
  CacheGeometry lru_g{32 * 1024, 4, 64};
  CacheGeometry rnd_g = lru_g;
  rnd_g.policy = Replacement::Random;
  Cache lru("lru", lru_g), rnd("rnd", rnd_g);
  for (Cache* c : {&lru, &rnd}) {
    for (addr_t a = 0; a < 24 * 1024; a += 64) c->access(a, false);
    for (addr_t rep = 0; rep < 8; ++rep) {
      // Re-touch the resident set, then stream.
      for (addr_t a = 0; a < 24 * 1024; a += 64) c->access(a, false);
      for (addr_t a = 0x100000 + rep * 4096; a < 0x100000 + (rep + 1) * 4096; a += 64)
        c->access(a, false);
    }
  }
  std::uint64_t lru_resident = 0, rnd_resident = 0;
  for (addr_t a = 0; a < 24 * 1024; a += 64) {
    lru_resident += lru.contains(a) ? 1 : 0;
    rnd_resident += rnd.contains(a) ? 1 : 0;
  }
  EXPECT_EQ(lru_resident, 24u * 1024 / 64);  // LRU keeps everything
  EXPECT_LT(rnd_resident, lru_resident);     // random loses some lines
  EXPECT_LE(lru.stats().misses(), rnd.stats().misses());
}

TEST(PolicyTest, PlruRequiresPow2Associativity) {
  CacheGeometry g{768, 3, 64};
  g.policy = Replacement::TreePlru;
  EXPECT_THROW(Cache("bad", g), ag::InvalidArgument);
}

TEST(PolicyTest, NamesForReporting) {
  EXPECT_STREQ(ag::model::to_string(Replacement::Lru), "LRU");
  EXPECT_STREQ(ag::model::to_string(Replacement::TreePlru), "tree-PLRU");
  EXPECT_STREQ(ag::model::to_string(Replacement::Random), "random");
}
