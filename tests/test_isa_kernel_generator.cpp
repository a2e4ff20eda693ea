// Generated register-kernel programs: instruction counts per copy match
// Section V-A (24 fmla + 7 ldr for 8x6), register usage matches the
// paper's allocation (v8-v31 accumulators, v0-v7 working), the fmla
// operand pattern follows the rotation table, and the Figure 8 listing
// renders A64 syntax.
#include <gtest/gtest.h>

#include "common/check.hpp"

#include <set>

#include "isa/kernel_generator.hpp"
#include "model/machine.hpp"

using ag::isa::generate_register_kernel;
using ag::isa::GeneratedKernel;
using ag::isa::KernelGenOptions;
using ag::isa::Opcode;

namespace {

GeneratedKernel gen86(KernelGenOptions opts = {}) {
  return generate_register_kernel({8, 6}, ag::model::xgene(), opts);
}

TEST(KernelGen, InstructionBudgetPerCopy8x6) {
  const GeneratedKernel gk = gen86();
  const int copies = gk.rotation.unroll;
  EXPECT_EQ(gk.body.count(Opcode::Fmla), 24 * copies);
  EXPECT_EQ(gk.body.count(Opcode::Ldr), 7 * copies);
  EXPECT_EQ(gk.body.count(Opcode::Prfm), 2 * copies);  // one A (L1) + one B (L2)
}

TEST(KernelGen, RegisterPartition8x6) {
  const GeneratedKernel gk = gen86();
  EXPECT_EQ(gk.c_registers, 24);
  EXPECT_EQ(gk.working_registers, 8);
  for (const auto& ins : gk.body.instrs) {
    if (ins.op == Opcode::Fmla) {
      EXPECT_GE(ins.dst, 8);   // accumulators live in v8..v31
      EXPECT_LE(ins.dst, 31);
      EXPECT_LT(ins.srca, 8);  // A/B live in v0..v7
      EXPECT_LT(ins.srcb, 8);
      EXPECT_TRUE(ins.lane == 0 || ins.lane == 1);
    } else if (ins.op == Opcode::Ldr) {
      EXPECT_LT(ins.dst, 8);
    }
  }
}

TEST(KernelGen, EveryAccumulatorTouchedEachCopy) {
  const GeneratedKernel gk = gen86();
  std::set<int> dsts;
  int fmla_seen = 0;
  for (const auto& ins : gk.body.instrs) {
    if (ins.op != Opcode::Fmla) continue;
    dsts.insert(ins.dst);
    if (++fmla_seen == 24) break;  // first copy
  }
  EXPECT_EQ(dsts.size(), 24u);
}

TEST(KernelGen, StreamConsumptionRates) {
  const GeneratedKernel gk = gen86();
  EXPECT_EQ(gk.a_bytes_per_copy, 64);  // mr * 8 bytes: one cache line
  EXPECT_EQ(gk.b_bytes_per_copy, 48);
  EXPECT_EQ(gk.a_bytes_per_body(), 64 * gk.rotation.unroll);
}

TEST(KernelGen, PrefetchDistancesInProgram) {
  KernelGenOptions opts;
  opts.prea_bytes = 1024;
  opts.preb_bytes = 24576;
  const GeneratedKernel gk = gen86(opts);
  bool saw_a = false, saw_b = false;
  for (const auto& ins : gk.body.instrs) {
    if (ins.op != Opcode::Prfm) continue;
    if (ins.stream == ag::isa::Stream::A) {
      EXPECT_EQ(ins.prefetch_level, 1);
      saw_a = true;
    } else if (ins.stream == ag::isa::Stream::B) {
      EXPECT_EQ(ins.prefetch_level, 2);
      saw_b = true;
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(KernelGen, NoPrefetchOption) {
  KernelGenOptions opts;
  opts.prefetch = false;
  EXPECT_EQ(gen86(opts).body.count(Opcode::Prfm), 0);
}

TEST(KernelGen, LoadsFollowRotationTable) {
  const GeneratedKernel gk = gen86();
  // Over one full unrolled body, the multiset of registers written by
  // loads equals the multiset of registers the rotation table assigns to
  // roles (each copy reloads exactly the next copy's role registers; a
  // late-read register's load may land in the following copy).
  std::multiset<int> loaded;
  for (const auto& ins : gk.body.instrs)
    if (ins.op == Opcode::Ldr) loaded.insert(ins.dst);
  std::multiset<int> expected;
  for (const auto& copy : gk.rotation.table)
    for (int reg : copy) expected.insert(reg);
  EXPECT_EQ(loaded, expected);
}

// Functional verification: interpret the generated program's dataflow.
// Each register holds a (stream, byte-offset) tag written by its last
// ldr; every fmla of copy c must multiply exactly the A sub-sliver
// [c*mr*8 + 16h] and B sub-sliver [c*nr*8 + 16(j/2)] with lane j%2 — i.e.
// rotation + scheduling + emission together preserve the mathematics.
void verify_dataflow(const GeneratedKernel& gk, int iterations) {
  struct Tag {
    ag::isa::Stream stream = ag::isa::Stream::None;
    std::int64_t offset = -1;
  };
  std::vector<Tag> regs(32);
  // Prologue: copy 0's roles are preloaded with their values.
  const auto sched = ag::isa::make_read_schedule(gk.shape);
  for (int role = 0; role < gk.rotation.num_roles; ++role) {
    const auto& r = sched.roles[static_cast<std::size_t>(role)];
    Tag t;
    t.stream = r.kind == ag::isa::Role::Kind::A ? ag::isa::Stream::A : ag::isa::Stream::B;
    t.offset = 16 * r.half;
    regs[static_cast<std::size_t>(gk.rotation.table[0][role])] = t;
  }

  const int f = gk.shape.mr * gk.shape.nr / 2;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::int64_t a_base = iter * gk.a_bytes_per_body();
    const std::int64_t b_base = iter * gk.b_bytes_per_body();
    int fmla_index = 0;
    for (const auto& ins : gk.body.instrs) {
      if (ins.op == Opcode::Ldr) {
        Tag t;
        t.stream = ins.stream;
        t.offset = (ins.stream == ag::isa::Stream::A ? a_base : b_base) + ins.offset_bytes;
        regs[static_cast<std::size_t>(ins.dst)] = t;
      } else if (ins.op == Opcode::Fmla) {
        const int copy = fmla_index / f;
        const int t = fmla_index % f;
        const int h = t / gk.shape.nr;
        const int j = t % gk.shape.nr;
        const std::int64_t copy_index = iter * gk.rotation.unroll + copy;
        const Tag& a = regs[static_cast<std::size_t>(ins.srca)];
        const Tag& b = regs[static_cast<std::size_t>(ins.srcb)];
        ASSERT_EQ(a.stream, ag::isa::Stream::A) << "iter " << iter << " fmla " << fmla_index;
        ASSERT_EQ(a.offset, copy_index * gk.a_bytes_per_copy + 16 * h)
            << "iter " << iter << " copy " << copy << " fmla " << t << " (A half " << h << ")";
        ASSERT_EQ(b.stream, ag::isa::Stream::B) << "iter " << iter << " fmla " << fmla_index;
        ASSERT_EQ(b.offset, copy_index * gk.b_bytes_per_copy + 16 * (j / 2))
            << "iter " << iter << " copy " << copy << " fmla " << t << " (B half " << j / 2
            << ")";
        ASSERT_EQ(ins.lane, j % 2);
        ++fmla_index;
      }
    }
  }
}

TEST(KernelGen, DataflowCorrectRotated) { verify_dataflow(gen86(), 3); }

TEST(KernelGen, DataflowCorrectUnrotated) {
  KernelGenOptions opts;
  opts.rotate = false;
  verify_dataflow(gen86(opts), 3);
}

TEST(KernelGen, DataflowCorrectOtherShapes) {
  for (ag::KernelShape s : {ag::KernelShape{8, 4}, {4, 4}, {6, 8}})
    verify_dataflow(generate_register_kernel(s, ag::model::xgene()), 2);
}

TEST(KernelGen, ListingLooksLikeFigure8) {
  const GeneratedKernel gk = gen86();
  const std::string listing = gk.body.listing();
  EXPECT_NE(listing.find("fmla    v8.2d, v"), std::string::npos);
  EXPECT_NE(listing.find("ldr     q"), std::string::npos);
  EXPECT_NE(listing.find("prfm    PLDL1KEEP, [x14"), std::string::npos);
  EXPECT_NE(listing.find("prfm    PLDL2KEEP, [x15"), std::string::npos);
}

TEST(KernelGen, UnrotatedVariant) {
  KernelGenOptions opts;
  opts.rotate = false;
  const GeneratedKernel gk = gen86(opts);
  EXPECT_FALSE(gk.rotation.rotated);
  EXPECT_EQ(gk.rotation.unroll, opts.identity_unroll);
  EXPECT_EQ(gk.body.count(Opcode::Fmla), 24 * opts.identity_unroll);
}

TEST(KernelGen, OtherShapes) {
  for (ag::KernelShape s : {ag::KernelShape{8, 4}, {4, 4}, {6, 8}}) {
    const GeneratedKernel gk = generate_register_kernel(s, ag::model::xgene());
    const int copies = gk.rotation.unroll;
    EXPECT_EQ(gk.body.count(Opcode::Fmla), s.mr * s.nr / 2 * copies) << s.to_string();
    EXPECT_EQ(gk.body.count(Opcode::Ldr), (s.mr + s.nr) / 2 * copies) << s.to_string();
  }
}

TEST(KernelGen, EpilogueCoversWholeCTile) {
  const GeneratedKernel gk = gen86();
  // One ldr + fmla + str triple per C register pair (24 for 8x6), with
  // offsets covering the full 8x6 tile of 16-byte pairs exactly once.
  EXPECT_EQ(gk.epilogue.count(Opcode::Ldr), 24);
  EXPECT_EQ(gk.epilogue.count(Opcode::Fmla), 24);
  EXPECT_EQ(gk.epilogue.count(Opcode::Str), 24);
  std::set<std::int64_t> offsets;
  for (const auto& ins : gk.epilogue.instrs) {
    if (ins.op == Opcode::Str) {
      EXPECT_EQ(ins.stream, ag::isa::Stream::C);
      offsets.insert(ins.offset_bytes);
    }
  }
  EXPECT_EQ(offsets.size(), 24u);
  EXPECT_EQ(*offsets.begin(), 0);
  EXPECT_EQ(*offsets.rbegin(), 16 * 23);
}

TEST(KernelGen, EpilogueReadsEveryAccumulator) {
  const GeneratedKernel gk = gen86();
  std::set<int> accs;
  for (const auto& ins : gk.epilogue.instrs)
    if (ins.op == Opcode::Fmla) accs.insert(ins.srca);
  EXPECT_EQ(accs.size(), 24u);
  for (int acc : accs) {
    EXPECT_GE(acc, 8);
    EXPECT_LE(acc, 31);
  }
}

TEST(KernelGen, RejectsOddShapes) {
  EXPECT_THROW(generate_register_kernel({5, 5}, ag::model::xgene()), ag::InvalidArgument);
}

}  // namespace
