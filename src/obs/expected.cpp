#include "obs/expected.hpp"

#include <algorithm>

#include "common/knobs.hpp"
#include "common/math_util.hpp"

namespace ag::obs {

LayerCounters expected_gemm_counters(std::int64_t m, std::int64_t n, std::int64_t k,
                                     const BlockSizes& bs) {
  LayerCounters c;
  if (m <= 0 || n <= 0) return c;
  c.gemm_calls = 1;
  c.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  if (k <= 0) return c;

  // The driver's dispatch is part of the contract being modelled: shapes
  // under the small-path threshold run the unpacked small path, one
  // region that also holds whatever A it packs, so the model predicts a
  // single small-path multiply and no packed-buffer traffic.
  if (use_small_gemm(m, n, k)) {
    c.small_calls = 1;
    c.c_bytes = static_cast<std::uint64_t>(2 * m * n) * 8;  // C read + write
    return c;
  }

  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::int64_t mr = bs.mr, nr = bs.nr;
  for (std::int64_t jj = 0; jj < n; jj += bs.nc) {
    const std::int64_t nc = std::min<std::int64_t>(bs.nc, n - jj);
    const std::int64_t b_slivers = ceil_div(nc, nr);
    for (std::int64_t kk = 0; kk < k; kk += bs.kc) {
      const std::int64_t kc = std::min<std::int64_t>(bs.kc, k - kk);
      c.pack_b_calls += 1;
      c.pack_b_bytes += u(b_slivers * nr * kc) * 8;
      for (std::int64_t ii = 0; ii < m; ii += bs.mc) {
        const std::int64_t mc = std::min<std::int64_t>(bs.mc, m - ii);
        const std::int64_t a_slivers = ceil_div(mc, mr);
        c.pack_a_calls += 1;
        c.pack_a_bytes += u(a_slivers * mr * kc) * 8;
        c.gebp_calls += 1;
        c.kernel_calls += u(a_slivers * b_slivers);
        c.c_bytes += u(2 * mc * nc) * 8;
      }
    }
  }
  return c;
}

}  // namespace ag::obs
