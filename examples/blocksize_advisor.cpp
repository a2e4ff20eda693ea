// Block-size advisor: apply the paper's analytic methodology (Sections
// IV-A/IV-B) to *any* cache geometry you describe on the command line,
// and print the derived register block, cache blocks, occupancies and
// prefetch distances — i.e. the paper's method as a reusable tool.
//
//   ./blocksize_advisor --l1=32768 --l1-assoc=4 --l2=262144 --l2-assoc=16
//                       --l3=8388608 --l3-assoc=16 --regs=32 --threads=8
//   (one command line)
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "model/cache_blocking.hpp"
#include "model/machine.hpp"
#include "model/perf_model.hpp"
#include "model/register_blocking.hpp"

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);

  ag::model::MachineConfig m = ag::model::xgene();
  m.name = args.get("name", "custom (defaults = X-Gene)");
  m.l1d.size_bytes = args.get_int("l1", m.l1d.size_bytes);
  m.l1d.associativity = static_cast<int>(args.get_int("l1-assoc", m.l1d.associativity));
  m.l2.size_bytes = args.get_int("l2", m.l2.size_bytes);
  m.l2.associativity = static_cast<int>(args.get_int("l2-assoc", m.l2.associativity));
  m.l3.size_bytes = args.get_int("l3", m.l3.size_bytes);
  m.l3.associativity = static_cast<int>(args.get_int("l3-assoc", m.l3.associativity));
  m.regs.num_fp_registers = static_cast<int>(args.get_int("regs", m.regs.num_fp_registers));
  m.cores = static_cast<int>(args.get_int("cores", m.cores));
  m.cores_per_module = static_cast<int>(args.get_int("cores-per-module", m.cores_per_module));
  const int threads = static_cast<int>(args.get_int("threads", 1));

  std::cout << "Machine: " << m.name << "\n"
            << "  L1d " << m.l1d.size_bytes / 1024 << "K/" << m.l1d.associativity << "-way, L2 "
            << m.l2.size_bytes / 1024 << "K/" << m.l2.associativity << "-way (per "
            << m.cores_per_module << "-core module), L3 " << m.l3.size_bytes / 1024 << "K/"
            << m.l3.associativity << "-way, " << m.regs.num_fp_registers
            << " vector registers, " << threads << " thread(s)\n\n";

  // Step 1 (Section IV-A): register blocking from the register file.
  const auto reg = ag::model::solve_register_blocking(m);
  std::cout << "Register block (Eqs. 8-11): mr x nr = " << reg.mr << "x" << reg.nr
            << ", nrf = " << reg.nrf << ", gamma = " << ag::Table::fmt(reg.gamma, 3) << "\n";
  const auto budget = ag::model::register_budget(reg.mr, reg.nr, m);
  std::cout << "Register budget: " << budget.c_registers << " accumulators + "
            << budget.ab_registers << " A/B registers (of " << m.regs.num_fp_registers
            << ")\n\n";

  // Step 2 (Section IV-B/C): cache blocking from the hierarchy.
  const auto cb = ag::model::solve_cache_blocking(m, {reg.mr, reg.nr}, threads);
  std::cout << "Cache blocks (Eqs. 15,17-20): " << cb.blocks.to_string() << "\n"
            << "  B sliver occupies " << ag::Table::fmt_pct(cb.l1_fraction_b_sliver, 1)
            << " of L1 (k1=" << cb.k1 << ")\n"
            << "  A block(s) occupy " << ag::Table::fmt_pct(cb.l2_fraction_a_block, 1)
            << " of L2 (k2=" << cb.k2 << ")\n"
            << "  B panel occupies " << ag::Table::fmt_pct(cb.l3_fraction_b_panel, 1)
            << " of L3 (k3=" << cb.k3 << ")\n\n";

  const auto pf = ag::model::prefetch_distances(m, {reg.mr, reg.nr}, cb.blocks.kc);
  std::cout << "Prefetch distances: PREA = " << pf.prea_bytes << " B (A into L1), PREB = "
            << pf.preb_bytes << " B (next B sliver into L2)\n\n";

  // Step 3 (Section III): the layer gammas this configuration achieves.
  std::cout << "Compute-to-memory ratios: register kernel "
            << ag::Table::fmt(reg.gamma, 2) << ", GESS (Eq. 14) "
            << ag::Table::fmt(
                   ag::model::gamma_gess(reg.mr, reg.nr, cb.blocks.kc), 2)
            << ", GEBP (Eq. 16) "
            << ag::Table::fmt(
                   ag::model::gamma_gebp(reg.mr, reg.nr, cb.blocks.kc, cb.blocks.mc), 2)
            << "\n";
  return 0;
}
