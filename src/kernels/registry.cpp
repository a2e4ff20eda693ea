#include "kernels/microkernel.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "kernels/avx2_kernels.hpp"
#include "kernels/generic_kernels.hpp"
#include "kernels/neon_kernels.hpp"

namespace ag {

namespace {

std::vector<Microkernel> build_registry() {
  std::vector<Microkernel> ks;
  ks.push_back({"generic_8x6", {8, 6}, KernelIsa::Scalar, &generic_microkernel<8, 6>,
                &generic_microkernel_strided<double, 8, 6, &generic_microkernel<8, 6>>});
  ks.push_back({"generic_8x4", {8, 4}, KernelIsa::Scalar, &generic_microkernel<8, 4>,
                &generic_microkernel_strided<double, 8, 4, &generic_microkernel<8, 4>>});
  ks.push_back({"generic_4x4", {4, 4}, KernelIsa::Scalar, &generic_microkernel<4, 4>,
                &generic_microkernel_strided<double, 4, 4, &generic_microkernel<4, 4>>});
  ks.push_back({"generic_5x5", {5, 5}, KernelIsa::Scalar, &generic_microkernel<5, 5>,
                &generic_microkernel_strided<double, 5, 5, &generic_microkernel<5, 5>>});
  ks.push_back({"generic_6x8", {6, 8}, KernelIsa::Scalar, &generic_microkernel<6, 8>,
                &generic_microkernel_strided<double, 6, 8, &generic_microkernel<6, 8>>});
  ks.push_back({"generic_12x4", {12, 4}, KernelIsa::Scalar, &generic_microkernel<12, 4>,
                &generic_microkernel_strided<double, 12, 4, &generic_microkernel<12, 4>>});
  ks.push_back({"generic_2x2", {2, 2}, KernelIsa::Scalar, &generic_microkernel<2, 2>,
                &generic_microkernel_strided<double, 2, 2, &generic_microkernel<2, 2>>});
  ks.push_back({"generic_1x1", {1, 1}, KernelIsa::Scalar, &generic_microkernel<1, 1>,
                &generic_microkernel_strided<double, 1, 1, &generic_microkernel<1, 1>>});
#if defined(__AVX2__) && defined(__FMA__)
  ks.push_back({"avx2_8x6", {8, 6}, KernelIsa::Avx2, &avx2_microkernel_8x6,
                &avx2_microkernel_8x6_strided});
  ks.push_back({"avx2_8x4", {8, 4}, KernelIsa::Avx2, &avx2_microkernel_8x4,
                &avx2_microkernel_8x4_strided});
  ks.push_back({"avx2_4x4", {4, 4}, KernelIsa::Avx2, &avx2_microkernel_4x4,
                &avx2_microkernel_4x4_strided});
  ks.push_back({"avx2_12x4", {12, 4}, KernelIsa::Avx2, &avx2_microkernel_12x4,
                &avx2_microkernel_12x4_strided});
#endif
#if defined(__aarch64__)
  // Strided entries gather into packed slivers and run the NEON kernel,
  // as the generic ones do, until NEON gets in-place strided loops.
  ks.push_back({"neon_8x6", {8, 6}, KernelIsa::Neon, &neon_microkernel_8x6,
                &generic_microkernel_strided<double, 8, 6, &neon_microkernel_8x6>});
  ks.push_back({"neon_8x4", {8, 4}, KernelIsa::Neon, &neon_microkernel_8x4,
                &generic_microkernel_strided<double, 8, 4, &neon_microkernel_8x4>});
  ks.push_back({"neon_4x4", {4, 4}, KernelIsa::Neon, &neon_microkernel_4x4,
                &generic_microkernel_strided<double, 4, 4, &neon_microkernel_4x4>});
#endif
  return ks;
}

}  // namespace

const std::vector<Microkernel>& all_microkernels() {
  static const std::vector<Microkernel> registry = build_registry();
  return registry;
}

const Microkernel* find_best_microkernel(KernelShape shape) {
  const Microkernel* best = nullptr;
  for (const auto& k : all_microkernels()) {
    if (k.shape != shape) continue;
    if (best == nullptr || static_cast<int>(k.isa) > static_cast<int>(best->isa)) best = &k;
  }
  return best;
}

const Microkernel& best_microkernel(KernelShape shape) {
  const Microkernel* best = find_best_microkernel(shape);
  AG_CHECK_MSG(best != nullptr, "no microkernel registered for shape " << shape.to_string());
  return *best;
}

const Microkernel& microkernel_by_name(const std::string& name) {
  for (const auto& k : all_microkernels())
    if (k.name == name) return k;
  AG_CHECK_MSG(false, "unknown microkernel '" << name << "'");
  // Unreachable; AG_CHECK_MSG throws.
  throw InternalError("unreachable");
}

std::vector<KernelShape> paper_kernel_shapes() {
  return {{8, 6}, {8, 4}, {4, 4}, {5, 5}};
}

}  // namespace ag
