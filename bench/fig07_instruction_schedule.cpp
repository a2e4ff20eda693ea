// Regenerates Figure 7: the load placement inside each unrolled copy of
// the 8x6 register kernel, with the bottleneck RAW distance from Eq. 13
// and the WAR slack that register rotation provides.
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "isa/rotation.hpp"
#include "isa/scheduler.hpp"

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  agbench::banner("Figure 7", "instruction scheduling with optimal RAW distance (8x6)");

  const auto rotation = ag::isa::solve_rotation({8, 6}, 8);
  const auto plan = ag::isa::schedule_loads(rotation);

  // Render copy 0 as a 4x6 grid of fmlas with loads marked in their gaps,
  // like the paper's Figure 7.
  const auto& loads = plan.copies[0].loads;
  std::cout << "\nCopy #0 instruction stream (row-major over the 8x6 C tile;\n"
            << "'ldr vN' markers show where each load is placed):\n\n";
  std::size_t li = 0;
  for (int t = 0; t < 24; ++t) {
    while (li < loads.size() && loads[li].gap == t) {
      std::cout << "[ldr v" << loads[li].reg << "] ";
      ++li;
    }
    std::cout << "fmla ";
    if (t % 6 == 5) std::cout << "\n";
  }

  ag::Table t({"copy", "load gaps (before fmla #)", "min RAW distance (fmlas)"});
  for (int c = 0; c < rotation.unroll; ++c) {
    std::string gaps;
    int copy_min = INT32_MAX;
    for (const auto& l : plan.copies[static_cast<std::size_t>(c)].loads) {
      if (!gaps.empty()) gaps += ',';
      gaps += std::to_string(l.gap);
      copy_min = std::min(copy_min, l.raw_distance_fmla);
    }
    t.add_row({std::to_string(c), gaps, std::to_string(copy_min)});
  }
  std::cout << "\n";
  agbench::emit(args, t);

  std::cout << "\nBottleneck RAW distance (Eq. 13): " << plan.min_raw_distance
            << " fmlas (paper: optimal distance 9 in its numbering; the\n"
            << "hardware requirement it validates is >= 4 fmlas).\n"
            << "Minimum WAR slack from rotation: " << plan.min_war_slack << " fmlas.\n";
  return 0;
}
