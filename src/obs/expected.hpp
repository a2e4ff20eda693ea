// The blocking arithmetic: exactly which counters a dgemm call must
// produce, derived from the Figure 2 loop structure alone. Tests compare
// these predictions against measured GemmStats; the bench reports print
// them next to the measured values as a self-check.
//
// There is one blocked driver (core/gemm.cpp). All counter predictions
// except pack_b_calls are identical at every rank count (its block grid
// splits M into the same ceil(m/mc) chunks overall). pack_b_calls counts
// whole-panel packs, matching a one-rank run; with several ranks the
// driver records one call per rank that packed a non-empty sliver range
// of each panel.
#pragma once

#include <cstdint>

#include "core/block_sizes.hpp"
#include "obs/gemm_stats.hpp"

namespace ag::obs {

/// Counters one column-major dgemm with m,n,k > 0 and alpha != 0 must
/// record (time fields are left zero). Exact at one rank; exact except
/// pack_b_calls with several ranks.
LayerCounters expected_gemm_counters(std::int64_t m, std::int64_t n, std::int64_t k,
                                     const BlockSizes& bs);

}  // namespace ag::obs
