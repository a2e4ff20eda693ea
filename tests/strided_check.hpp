// Bitwise check of a register kernel's strided entry against its packed
// entry (kernels/microkernel.hpp), shared by the f64 and f32 kernel
// suites. Every operand is allocated to its exact extent, so a sanitizer
// build catches an edge tile that reads past op(A) or op(B).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "blas/gemm_types.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"

namespace agtest {

/// One stored operand: `rows` x `cols` of op(X), held as X (trans ==
/// NoTrans) or X^T with leading dimension `ld`, in a buffer of exactly
/// the extent its last element needs.
template <typename T>
struct StoredOperand {
  ag::Trans trans;
  std::int64_t rows, cols, ld;
  std::vector<T> data;

  StoredOperand(ag::Trans t, std::int64_t r, std::int64_t c, std::int64_t pad,
                ag::Xoshiro256& rng)
      : trans(t), rows(r), cols(c), ld((t == ag::Trans::NoTrans ? r : c) + pad) {
    const std::int64_t inner = t == ag::Trans::NoTrans ? r : c;
    const std::int64_t outer = t == ag::Trans::NoTrans ? c : r;
    data.resize(static_cast<std::size_t>(ld * (outer - 1) + inner));
    for (T& v : data) v = static_cast<T>(rng.uniform(-1, 1));
  }
  T at(std::int64_t i, std::int64_t j) const {
    return data[static_cast<std::size_t>(trans == ag::Trans::NoTrans ? i + j * ld : j + i * ld)];
  }
};

/// Runs the packed entry on zero-padded mr x kc and kc x nr slivers and
/// the strided entry on the same values read in place (A is packed for
/// the strided entry too where the small path packs it: a transposed A
/// or an edge sliver), over every rows x cols edge size, and compares the
/// first `cols` columns of C (ldc rows each) byte for byte.
template <typename T, typename PackedFn, typename StridedFn>
void check_strided_matches_packed(const std::string& name, int mr, int nr, PackedFn packed,
                                  StridedFn strided) {
  using ag::Trans;
  ag::Xoshiro256 rng(20260);
  for (const std::int64_t kc : {1, 7, 173})
    for (const Trans ta : {Trans::NoTrans, Trans::Trans})
      for (const Trans tb : {Trans::NoTrans, Trans::Trans})
        for (int rows = 1; rows <= mr; ++rows)
          for (int cols = 1; cols <= nr; ++cols) {
            const StoredOperand<T> a(ta, rows, kc, 5, rng);
            const StoredOperand<T> b(tb, kc, cols, 3, rng);
            // The packed entries load A aligned, as from a packing buffer.
            ag::AlignedBuffer<T> ap(static_cast<std::size_t>(mr * kc));
            ag::AlignedBuffer<T> bp(static_cast<std::size_t>(nr * kc));
            for (std::int64_t p = 0; p < kc; ++p) {
              for (int i = 0; i < mr; ++i)
                ap[static_cast<std::size_t>(p * mr + i)] = i < rows ? a.at(i, p) : T(0);
              for (int j = 0; j < nr; ++j)
                bp[static_cast<std::size_t>(p * nr + j)] = j < cols ? b.at(p, j) : T(0);
            }
            const bool in_place = ta == Trans::NoTrans && rows == mr;
            const T* as = in_place ? a.data.data() : ap.data();
            const std::int64_t lda = in_place ? a.ld : mr;
            const std::int64_t rsb = tb == Trans::NoTrans ? 1 : b.ld;
            const std::int64_t csb = tb == Trans::NoTrans ? b.ld : 1;
            const std::int64_t ldc = mr + 3;
            for (const T alpha : {T(1), T(-0.75)})
              for (const T beta : {T(0), T(1), T(-0.5)}) {
                // beta == 0 must not read C: a NaN seed would survive a read.
                std::vector<T> c_packed(static_cast<std::size_t>(ldc * (nr - 1) + mr));
                for (T& v : c_packed)
                  v = beta == T(0) ? std::numeric_limits<T>::quiet_NaN()
                                   : static_cast<T>(rng.uniform(-1, 1));
                std::vector<T> c_strided = c_packed;
                packed(kc, alpha, ap.data(), bp.data(), beta, c_packed.data(), ldc);
                strided(kc, alpha, as, lda, b.data.data(), rsb, csb, cols, beta,
                        c_strided.data(), ldc);
                const std::size_t elems =
                    cols == nr ? c_packed.size() : static_cast<std::size_t>(ldc * cols);
                ASSERT_EQ(std::memcmp(c_packed.data(), c_strided.data(), elems * sizeof(T)), 0)
                    << name << " kc=" << kc << " ta=" << static_cast<int>(ta)
                    << " tb=" << static_cast<int>(tb) << " rows=" << rows << " cols=" << cols
                    << " alpha=" << alpha << " beta=" << beta;
              }
          }
}

}  // namespace agtest
