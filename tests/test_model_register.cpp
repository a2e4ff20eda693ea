// Pins the register-blocking solver (Section IV-A) to the paper's
// published results: gamma formula, the Figure 5 surface, the 8x6 / nrf=6
// optimum with gamma = 6.857, and the register budget (24 C registers + 8
// working registers).
#include <gtest/gtest.h>

#include <algorithm>

#include "model/machine.hpp"
#include "model/register_blocking.hpp"

namespace agm = ag::model;

TEST(RegisterGamma, MatchesEq8) {
  EXPECT_NEAR(agm::register_gamma(8, 6), 6.857, 1e-3);
  EXPECT_NEAR(agm::register_gamma(8, 4), 16.0 / 3.0, 1e-12);  // 5.33 (Section V)
  EXPECT_NEAR(agm::register_gamma(4, 4), 4.0, 1e-12);
  EXPECT_NEAR(agm::register_gamma(5, 5), 5.0, 1e-12);
  EXPECT_NEAR(agm::register_gamma(6, 8), agm::register_gamma(8, 6), 1e-12);
}

TEST(RegisterGamma, SymmetricAndMonotone) {
  for (int mr = 2; mr <= 16; mr += 2)
    for (int nr = 2; nr <= 16; nr += 2) {
      EXPECT_DOUBLE_EQ(agm::register_gamma(mr, nr), agm::register_gamma(nr, mr));
      if (nr + 2 <= 16) {
        EXPECT_LT(agm::register_gamma(mr, nr), agm::register_gamma(mr, nr + 2));
      }
    }
}

TEST(Constraint9, TightAt8x6Nrf6) {
  const auto& m = agm::xgene();
  // (48 + 16 + 12) * 8 = 608 = (32 + 6) * 16: equality.
  EXPECT_TRUE(agm::register_capacity_ok(8, 6, 6, m.regs, m.element_bytes));
  EXPECT_FALSE(agm::register_capacity_ok(8, 6, 5, m.regs, m.element_bytes));
  EXPECT_FALSE(agm::register_capacity_ok(8, 8, 8, m.regs, m.element_bytes));
}

TEST(Constraint10, BoundsPreloadRegisters) {
  const auto& m = agm::xgene();
  // nrf * 16 <= (8 + 6) * 8 = 112 => nrf <= 7.
  EXPECT_TRUE(agm::preload_reuse_ok(8, 6, 7, m.regs, m.element_bytes));
  EXPECT_FALSE(agm::preload_reuse_ok(8, 6, 8, m.regs, m.element_bytes));
  EXPECT_TRUE(agm::preload_reuse_ok(8, 6, 0, m.regs, m.element_bytes));
  EXPECT_FALSE(agm::preload_reuse_ok(8, 6, -1, m.regs, m.element_bytes));
}

TEST(Solver, Picks8x6OnXGene) {
  const agm::RegisterChoice best = agm::solve_register_blocking(agm::xgene());
  EXPECT_EQ(best.mr, 8);
  EXPECT_EQ(best.nr, 6);
  EXPECT_EQ(best.nrf, 6);
  EXPECT_NEAR(best.gamma, 6.857, 1e-3);
}

TEST(Solver, WithoutTallPreferencePicksSameGamma) {
  agm::RegisterBlockingOptions opts;
  opts.prefer_tall = false;
  const agm::RegisterChoice best = agm::solve_register_blocking(agm::xgene(), opts);
  EXPECT_NEAR(best.gamma, 6.857, 1e-3);
  EXPECT_TRUE((best.mr == 8 && best.nr == 6) || (best.mr == 6 && best.nr == 8));
}

TEST(Surface, PeakMatchesFigure5) {
  const auto grid = agm::register_gamma_surface(agm::xgene());
  double best = 0;
  for (const auto& p : grid) best = std::max(best, p.gamma);
  // The surface peaks at 6.857, attained by the symmetric pair 8x6 / 6x8
  // (Figure 5 annotates the 8x6 point).
  EXPECT_NEAR(best, 6.857, 1e-3);
  // The specific Figure 5 annotation: X=8, Y=6 -> Z=6.857.
  for (const auto& p : grid)
    if (p.mr == 8 && p.nrf == 6) {
      EXPECT_EQ(p.best_nr, 6);
      EXPECT_NEAR(p.gamma, 6.857, 1e-3);
    }
}

TEST(Surface, InfeasibleCornerHasZeroGamma) {
  const auto grid = agm::register_gamma_surface(agm::xgene(), 16, 8);
  // Large mr with nrf = 0 cannot satisfy Eq. (9) for any nr... but small
  // nr is always feasible; check that gamma degrades with nrf at high mr.
  double g16_0 = -1, g16_8 = -1;
  for (const auto& p : grid) {
    if (p.mr == 16 && p.nrf == 0) g16_0 = p.gamma;
    if (p.mr == 16 && p.nrf == 8) g16_8 = p.gamma;
  }
  ASSERT_GE(g16_0, 0.0);
  EXPECT_LE(g16_0, g16_8);
}

TEST(Enumeration, SortedDescendingAndContainsPaperShapes) {
  const auto all = agm::enumerate_register_choices(agm::xgene());
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_GE(all[i - 1].gamma, all[i].gamma);
  auto has = [&](int mr, int nr) {
    return std::any_of(all.begin(), all.end(),
                       [&](const agm::RegisterChoice& c) { return c.mr == mr && c.nr == nr; });
  };
  EXPECT_TRUE(has(8, 6));
  EXPECT_TRUE(has(8, 4));
  EXPECT_TRUE(has(4, 4));
}

TEST(RegisterBudget, PaperAllocation8x6) {
  const auto b = agm::register_budget(8, 6, agm::xgene());
  EXPECT_EQ(b.c_registers, 24);  // v8..v31
  EXPECT_EQ(b.ab_registers, 7);  // 8 elements of A + 6 of B in 7 regs
  EXPECT_EQ(b.total, 31);
}

TEST(RegisterBudget, SmallShapes) {
  EXPECT_EQ(agm::register_budget(4, 4, agm::xgene()).c_registers, 8);
  EXPECT_EQ(agm::register_budget(8, 4, agm::xgene()).c_registers, 16);
  EXPECT_EQ(agm::register_budget(5, 5, agm::xgene()).c_registers, 13);  // ceil(25/2)
}
