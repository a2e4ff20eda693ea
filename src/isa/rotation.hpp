// Software register rotation (Section IV-A, Eq. 12, Table I).
//
// The register kernel needs (mr + nr) / 2 working registers per loop copy
// to hold the A and B sub-slivers, but only nf - mr*nr/2 are free after
// the C accumulators are allocated (8 for the 8x6 kernel). While copy #i
// computes, the loads for copy #(i+1) overwrite registers #i has finished
// reading. Rotating which physical register plays which role each copy
// maximises the gap
//
//     Loc('R','NF', v) - Loc('R','CL', v)                       (Eq. 12)
//
// between the *current-last* fmla read of a register and the *next-first*
// fmla read of its reloaded value, giving the scheduler room to place the
// load without stalling. This module solves Eq. 12 exactly as a bottleneck
// assignment problem and emits the rotation table (the paper's Table I).
#pragma once

#include <string>
#include <vector>

#include "kernels/microkernel.hpp"

namespace ag::isa {

/// A working-register role: a-half h holds A elements 2h, 2h+1; b-half q
/// holds B elements 2q, 2q+1 (one 128-bit register each).
struct Role {
  enum class Kind { A, B } kind;
  int half;  // index within A or B halves

  std::string name() const {
    std::string text = kind == Kind::A ? "a" : "b";
    text += std::to_string(half);
    return text;
  }
};

/// Read schedule of one loop copy under the canonical fmla ordering
/// (row-major over the C tile, as the paper's Figure 8 code does:
/// all columns for A-half 0, then A-half 1, ...).
struct ReadSchedule {
  int fmla_count = 0;                // mr*nr/2
  std::vector<int> first_read;       // per role, fmla index of first read
  std::vector<int> last_read;        // per role, fmla index of last read
  std::vector<Role> roles;           // roles in canonical order (A halves, then B halves)
};
ReadSchedule make_read_schedule(ag::KernelShape shape);

/// The solved rotation.
struct RotationPlan {
  ag::KernelShape shape;
  int num_registers = 0;  // working registers available (free after C tile)
  int num_roles = 0;      // (mr + nr) / 2
  /// next_role[r]: role index the value loaded into role r's register
  /// serves in the next copy; num_roles means "spare" (reloaded next copy).
  std::vector<int> role_permutation;
  /// Physical register of each role per copy: table[copy][role]. The
  /// number of copies is the permutation's period (8 in the paper).
  std::vector<std::vector<int>> table;
  int unroll = 0;             // number of copies = rotation period
  int min_reload_distance = 0;  // the optimised Eq. 12 objective (in fmlas)
  bool rotated = true;

  std::string table_text() const;  // render like the paper's Table I
};

/// Solves Eq. (12): bottleneck-optimal chaining of current roles to next
/// roles (+ one spare), then builds the per-copy register table. Among
/// bottleneck-optimal solutions prefers the smallest rotation period.
RotationPlan solve_rotation(ag::KernelShape shape, int num_working_registers);

/// The non-rotated baseline (each role keeps its register every copy, the
/// spare register is unused) with the same distance metric evaluated;
/// ablation input for Figure 13.
RotationPlan identity_rotation(ag::KernelShape shape, int num_working_registers, int unroll);

}  // namespace ag::isa
