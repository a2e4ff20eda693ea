// Cache/register block sizes for the layered GEMM (Figure 2 of the paper).
//
//   mr x nr : register tile computed by the microkernel        (layer 7)
//   kc      : depth of a packed A block / B panel, sized for L1 (layer 6)
//   mc      : rows of a packed A block, sized for L2            (layer 5)
//   nc      : columns of a packed B panel, sized for L3         (layer 4)
//
// The paper derives these analytically from the cache geometry; the solver
// lives in src/model/cache_blocking.hpp. This header is just the plain
// data type the core consumes, plus the paper's published constants and a
// host-oriented default.
#pragma once

#include <cstdint>
#include <string>

#include "kernels/microkernel.hpp"

namespace ag {

struct BlockSizes {
  int mr = 8;
  int nr = 6;
  index_t kc = 256;
  index_t mc = 64;
  index_t nc = 4096;

  KernelShape shape() const { return {mr, nr}; }
  std::string to_string() const;

  /// Throws InvalidArgument unless all sizes are positive and mc/nc are
  /// compatible with mr/nr rounding.
  void validate() const;
};

/// The paper's Table III block sizes on the ARMv8 X-Gene.
BlockSizes paper_block_sizes(KernelShape shape, int threads);

/// Reasonable sizes for the build host (used when the caller does not run
/// the analytic solver). Scales kc/mc to typical 32K L1 / 256K-1M L2.
BlockSizes default_block_sizes(KernelShape shape, int threads);

/// sgemm's untuned blocking for an mr x nr float kernel, at any thread
/// count: kc 512, mc 64 rounded up to a multiple of mr, nc 4096 rounded
/// down to a multiple of nr. Also the tuner's f32 anchor (tune::anchor).
BlockSizes default_sgemm_block_sizes(KernelShape shape);

}  // namespace ag
