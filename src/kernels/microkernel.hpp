// The register-kernel (GESS / layer-7) contract.
//
// A microkernel performs the innermost computation of the Goto algorithm:
// a sequence of kc rank-1 updates of an mr x nr tile of C using packed
// slivers of A and B (Figure 2, layer 7 of the paper), with the BLAS beta
// fused into the epilogue:
//
//   C[0:mr, 0:nr] = beta * C + alpha * sum_{p=0}^{kc-1} a[p*mr + i] * b[p*nr + j]
//
// beta == 1 is the classic accumulate; beta == 0 OVERWRITES the tile
// without ever reading it (so NaN/Inf garbage in C is replaced, per BLAS
// semantics, and the C read traffic disappears); any other beta scales
// the tile in the same load-modify-store the accumulate already pays.
// Fusing beta here is what lets the GEMM drivers drop their standalone
// serial sweep over C before the blocked loops.
//
// `a` points at an mr x kc sliver packed column-by-column (mr contiguous
// elements per k-step); `b` points at a kc x nr sliver packed row-by-row
// (nr contiguous elements per k-step); `c` is an mr x nr column-major tile
// with leading dimension ldc. All pointers are valid for full tiles; the
// GEBP driver routes partial edge tiles through a padded buffer.
//
// The SIMD kernels additionally issue software prefetches: the packed A
// and B streams are prefetched ARMGEMM_PREA / ARMGEMM_PREB bytes ahead
// inside the k-loop (paper Section IV-B distances by default), and the C
// tile is prefetched before the k-loop so its lines arrive by epilogue
// time.
//
// Alignment contract: `a` and `b` point into packing buffers allocated
// with at least 32-byte (SIMD) alignment; the SIMD kernels use aligned
// vector loads on A. `c` may have any natural double alignment.
//
// Strided entry. Every kernel also carries a second entry that reads its
// operands in place, for the unpacked small-call path:
//
//   a(i, p) = a[i + p*lda]            (mr rows down a column of op(A))
//   b(p, j) = b[p*rsb + j*csb]        (op(B) at any stride)
//
// It runs the same k-ordered FMA chain and the same fused-beta epilogue
// as the packed entry, so on the same values the two store the same
// bits. Only the first `cols` columns of B are read: tile columns
// j >= cols repeat column cols - 1 and must be discarded by the caller,
// which passes cols < nr only into a local mr x nr tile (as GEBP does
// for its edge tiles). A packed sliver is a strided A with lda = mr. No
// alignment is assumed. The AVX2 entries load in place and apply no
// prefetch distance; the generic and NEON entries gather the slivers
// and run the packed entry on them (generic_microkernel_strided).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ag {

using index_t = std::int64_t;

using MicrokernelFn = void (*)(index_t kc, double alpha, const double* a, const double* b,
                               double beta, double* c, index_t ldc);

using StridedMicrokernelFn = void (*)(index_t kc, double alpha, const double* a, index_t lda,
                                      const double* b, index_t rsb, index_t csb, int cols,
                                      double beta, double* c, index_t ldc);

/// Register block shape (the paper's mr x nr).
struct KernelShape {
  int mr = 0;
  int nr = 0;

  friend bool operator==(const KernelShape&, const KernelShape&) = default;

  /// Compute-to-memory-access ratio of the register kernel, Eq. (8):
  /// gamma = 2*mr*nr / (mr + nr) = 2 / (1/mr + 1/nr).
  double gamma() const { return 2.0 * mr * nr / static_cast<double>(mr + nr); }

  std::string to_string() const {
    std::string text = std::to_string(mr);
    text += 'x';
    text += std::to_string(nr);
    return text;
  }
};

enum class KernelIsa { Scalar, Avx2, Neon };

inline const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar: return "scalar";
    case KernelIsa::Avx2: return "avx2";
    case KernelIsa::Neon: return "neon";
  }
  return "?";
}

/// A registered microkernel implementation.
struct Microkernel {
  std::string name;
  KernelShape shape;
  KernelIsa isa = KernelIsa::Scalar;
  MicrokernelFn fn = nullptr;
  StridedMicrokernelFn strided = nullptr;  // the small path's entry; every kernel has one
};

/// All kernels compiled into this build (SIMD variants only on matching
/// hosts). Scalar generic kernels for every paper shape are always present.
const std::vector<Microkernel>& all_microkernels();

/// Best available kernel for a shape: SIMD if the host supports it,
/// otherwise the generic scalar kernel. Throws if the shape is unknown.
const Microkernel& best_microkernel(KernelShape shape);

/// Non-throwing variant: nullptr when no kernel covers the shape (the
/// tuning cache uses this to reject entries for unregistered shapes).
const Microkernel* find_best_microkernel(KernelShape shape);

/// Look up by exact name (e.g. "avx2_8x6", "generic_5x5"); throws if absent.
const Microkernel& microkernel_by_name(const std::string& name);

/// The paper's four evaluated shapes: 8x6 (ours), 8x4, 4x4, 5x5 (ATLAS).
std::vector<KernelShape> paper_kernel_shapes();

}  // namespace ag
