// Load scheduling (Eq. 13 / Figure 7): loads are placed in distinct gaps,
// never before the overwritten value's last read, and the bottleneck RAW
// distance is maximised. The paper's instruction-order experiments found
// loaded registers usable after >= 4 fmlas; the scheduled kernel must
// respect that with room to spare.
#include <gtest/gtest.h>

#include "common/check.hpp"

#include <set>

#include "isa/rotation.hpp"
#include "isa/scheduler.hpp"

using ag::isa::identity_rotation;
using ag::isa::make_read_schedule;
using ag::isa::schedule_loads;
using ag::isa::SchedulePlan;
using ag::isa::solve_rotation;

TEST(SchedulerTest, RotatedKernelHasLargeRawDistance) {
  const auto rotation = solve_rotation({8, 6}, 8);
  const SchedulePlan plan = schedule_loads(rotation);
  // The paper's scheduling found distance 9 (in its instruction
  // numbering); our bottleneck-optimal placement in fmla units must give
  // at least the >= 4-fmla RAW requirement with margin.
  EXPECT_GE(plan.min_raw_distance, 4);
  EXPECT_GE(plan.min_war_slack, 0);
}

TEST(SchedulerTest, OneLoadPerGap) {
  const auto rotation = solve_rotation({8, 6}, 8);
  const SchedulePlan plan = schedule_loads(rotation);
  for (const auto& copy : plan.copies) {
    std::set<int> gaps;
    for (const auto& l : copy.loads) {
      EXPECT_TRUE(gaps.insert(l.gap).second) << "two loads share gap " << l.gap;
      EXPECT_GE(l.gap, 0);
      EXPECT_LT(l.gap, 24);
    }
    EXPECT_EQ(copy.loads.size(), 7u);  // (8 + 6) / 2 loads per copy
  }
}

TEST(SchedulerTest, LoadsNeverPrecedeLastRead) {
  const auto rotation = solve_rotation({8, 6}, 8);
  const auto sched = make_read_schedule({8, 6});
  const SchedulePlan plan = schedule_loads(rotation);
  for (int copy = 0; copy < rotation.unroll; ++copy) {
    const auto& cur = rotation.table[static_cast<std::size_t>(copy)];
    for (const auto& l : plan.copies[static_cast<std::size_t>(copy)].loads) {
      for (int role = 0; role < rotation.num_roles; ++role) {
        if (cur[role] == l.reg) {
          EXPECT_GT(l.raw_gap, sched.last_read[role])
              << "load overwrites role " << role << " before its last read";
        }
      }
    }
  }
}

TEST(SchedulerTest, RawDistanceConsistent) {
  const auto rotation = solve_rotation({8, 6}, 8);
  const auto sched = make_read_schedule({8, 6});
  const SchedulePlan plan = schedule_loads(rotation);
  for (const auto& copy : plan.copies) {
    for (const auto& l : copy.loads) {
      const int need = sched.fmla_count + sched.first_read[l.target_role];
      EXPECT_EQ(l.raw_distance_fmla, need - l.raw_gap);
      EXPECT_EQ(l.gap, l.raw_gap % sched.fmla_count);
      EXPECT_GE(l.raw_distance_fmla, plan.min_raw_distance);
    }
  }
}

TEST(SchedulerTest, RotationImprovesSchedulingFreedom) {
  const auto rotated = schedule_loads(solve_rotation({8, 6}, 8));
  const auto fixed = schedule_loads(identity_rotation({8, 6}, 8, 8));
  EXPECT_GE(rotated.min_raw_distance, fixed.min_raw_distance);
}

TEST(SchedulerTest, AllShapesSchedulable) {
  for (ag::KernelShape s : {ag::KernelShape{8, 6}, {8, 4}, {4, 4}, {6, 8}}) {
    const auto rotation = solve_rotation(s, 32 - s.mr * s.nr / 2);
    const SchedulePlan plan = schedule_loads(rotation);
    EXPECT_GE(plan.min_raw_distance, 1) << s.to_string();
    for (const auto& copy : plan.copies)
      EXPECT_EQ(static_cast<int>(copy.loads.size()), (s.mr + s.nr) / 2) << s.to_string();
  }
}
