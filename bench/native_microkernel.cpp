// Native (host) microkernel throughput: every registered register kernel,
// double (`all_microkernels`) and float (`all_smicrokernels`), on an
// L1-resident working set — the host-hardware analogue of the paper's
// Table IV micro-benchmark. The expected ordering (8x6 ahead of 8x4 ahead
// of 4x4 per-flop) carries over to x86 with AVX2; kernels that issue the
// same FMAs per k-step (avx2_8x6, avx2_12x4, savx2_16x6) should match in
// k-steps per second, so the float 16x6 reads twice 8x6's Gflop/s.
#include <benchmark/benchmark.h>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/sgemm_kernels.hpp"

namespace {

template <typename T>
using KernelFn = void (*)(ag::index_t kc, T alpha, const T* a, const T* b, T beta, T* c,
                          ag::index_t ldc);

template <typename T>
void bench_kernel(benchmark::State& state, KernelFn<T> fn, int mr, int nr) {
  const ag::index_t kc = state.range(0);
  ag::AlignedBuffer<T> a(static_cast<std::size_t>(mr * kc));
  ag::AlignedBuffer<T> b(static_cast<std::size_t>(nr * kc));
  ag::AlignedBuffer<T> c(static_cast<std::size_t>(mr * nr));
  ag::Xoshiro256 rng(1);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<T>(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<T>(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 0;

  for (auto _ : state) {
    fn(kc, T(1), a.data(), b.data(), T(1), c.data(), mr);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * mr * nr * static_cast<double>(kc);
  state.counters["GFLOPS"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto& kernel : ag::all_microkernels()) {
    benchmark::RegisterBenchmark(("ukr/" + kernel.name).c_str(), bench_kernel<double>,
                                 kernel.fn, kernel.shape.mr, kernel.shape.nr)
        ->Arg(256)
        ->Arg(512);
  }
  for (const auto& kernel : ag::all_smicrokernels()) {
    benchmark::RegisterBenchmark(("ukr/" + kernel.name).c_str(), bench_kernel<float>,
                                 kernel.fn, kernel.mr, kernel.nr)
        ->Arg(256)
        ->Arg(512);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
