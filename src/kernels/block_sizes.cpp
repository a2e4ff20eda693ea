#include "core/block_sizes.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace ag {

std::string BlockSizes::to_string() const {
  std::ostringstream os;
  os << mr << "x" << nr << "x" << kc << "x" << mc << "x" << nc;
  return os.str();
}

void BlockSizes::validate() const {
  AG_CHECK_MSG(mr > 0 && nr > 0, "register block " << mr << "x" << nr << " must be positive");
  AG_CHECK_MSG(kc > 0 && mc > 0 && nc > 0,
               "cache blocks kc=" << kc << " mc=" << mc << " nc=" << nc << " must be positive");
}

BlockSizes paper_block_sizes(KernelShape shape, int threads) {
  AG_CHECK_MSG(threads == 1 || threads == 2 || threads == 4 || threads == 8,
               "paper block sizes published for 1/2/4/8 threads, got " << threads);
  BlockSizes bs;
  bs.mr = shape.mr;
  bs.nr = shape.nr;
  if (shape == KernelShape{8, 6}) {
    // Table III + Figure 14: kc=512 always; mc/nc shrink as threads share
    // the L2 (two cores per module) and the L3 (eight blocks of A resident).
    bs.kc = 512;
    switch (threads) {
      case 1: bs.mc = 56; bs.nc = 1920; break;
      case 2: bs.mc = 56; bs.nc = 1920; break;   // one thread per module
      case 4: bs.mc = 56; bs.nc = 1792; break;   // one thread per module
      case 8: bs.mc = 24; bs.nc = 1792; break;   // two threads per module
    }
  } else if (shape == KernelShape{8, 4} || shape == KernelShape{4, 4}) {
    // Table III lists identical cache blocks for the 8x4 and 4x4 kernels.
    bs.kc = 768;
    switch (threads) {
      case 1: bs.mc = 32; bs.nc = 1280; break;
      case 2: bs.mc = 32; bs.nc = 1280; break;
      case 4: bs.mc = 32; bs.nc = 1192; break;
      case 8: bs.mc = 16; bs.nc = 1192; break;
    }
  } else if (shape == KernelShape{5, 5}) {
    // The ATLAS baseline (Section V): Goto-style "half cache" heuristic —
    // a kc x nr sliver of B fills ~half the L1, an mc x kc block of A
    // ~half the L2, reduced proportionally in the threaded setting.
    bs.kc = 384;
    switch (threads) {
      case 1: bs.mc = 40; bs.nc = 1280; break;
      case 2: bs.mc = 40; bs.nc = 1280; break;
      case 4: bs.mc = 40; bs.nc = 1160; break;
      case 8: bs.mc = 20; bs.nc = 1160; break;
    }
  } else {
    AG_CHECK_MSG(false, "no published block sizes for shape " << shape.to_string());
  }
  return bs;
}

BlockSizes default_block_sizes(KernelShape shape, int threads) {
  BlockSizes bs;
  bs.mr = shape.mr;
  bs.nr = shape.nr;
  // Host-oriented heuristic (typical 32K L1, >=512K effective L2, large
  // LLC): kc*nr doubles ~ 3/4 L1, mc*kc doubles ~ 3/4 of a 256K slice.
  bs.kc = std::max<index_t>(64, (24 * 1024 / 8) / shape.nr / 8 * 8);
  bs.mc = std::max<index_t>(shape.mr, (192 * 1024 / 8) / bs.kc / shape.mr * shape.mr);
  bs.nc = std::max<index_t>(shape.nr, 4096 / shape.nr * shape.nr);
  if (threads > 1) {
    bs.mc = std::max<index_t>(shape.mr, bs.mc / 2 / shape.mr * shape.mr);
    bs.nc = std::max<index_t>(shape.nr, bs.nc / 2 / shape.nr * shape.nr);
  }
  bs.validate();
  return bs;
}

BlockSizes default_sgemm_block_sizes(KernelShape shape) {
  BlockSizes bs;
  bs.mr = shape.mr;
  bs.nr = shape.nr;
  // The same kc as the double-precision default for nr = 6, so a float
  // kc x nr sliver of B takes half the L1 bytes of a double one. At
  // mr = 16, mc = 64 gives a 128 KB packed A block.
  bs.kc = 512;
  bs.mc = round_up<index_t>(64, shape.mr);
  bs.nc = 4096 / shape.nr * shape.nr;
  bs.validate();
  return bs;
}

}  // namespace ag
