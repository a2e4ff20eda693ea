// Rate guard for the AVX2 register kernels. avx2_8x6, avx2_12x4 and
// savx2_16x6 each issue 12 ymm FMAs per k-step (two or three A vectors
// times six or four B broadcasts), so on an L1-resident sliver pair they
// should retire k-steps at one rate. A kernel whose accumulator tile lives
// in memory instead of registers still passes every correctness test, but
// runs at about half that rate: this test is what catches it.
//
// Each kernel is timed on its own A/B sliver pair (kc = 256, beta = 1,
// ldc = mr) in rounds that rotate the kernel order, and each kernel's
// median k-steps per second must be at least kFloor times avx2_8x6's.
// Timing is meaningless in debug and sanitizer builds, so it skips there.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/avx2_kernels.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/sgemm_kernels.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AG_KERNEL_RATE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AG_KERNEL_RATE_SANITIZED 1
#endif
#endif

using ag::index_t;

namespace {

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef AG_KERNEL_RATE_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr index_t kKc = 256;
constexpr int kCallsPerSample = 4000;  // a few ms per sample at full rate
constexpr int kRounds = 15;
constexpr double kFloor = 0.75;

/// One kernel with its own packed slivers and C tile (ldc = mr).
template <typename T>
struct Sliver {
  using Fn = void (*)(index_t kc, T alpha, const T* a, const T* b, T beta, T* c, index_t ldc);

  Sliver(Fn f, int mr_in, int nr_in)
      : fn(f),
        mr(mr_in),
        a(static_cast<std::size_t>(mr_in * kKc)),
        b(static_cast<std::size_t>(nr_in * kKc)),
        c(static_cast<std::size_t>(mr_in * nr_in)) {
    ag::Xoshiro256 rng(17);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<T>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<T>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);
  }

  void run(int calls) {
    for (int i = 0; i < calls; ++i) fn(kKc, T(1), a.data(), b.data(), T(1), c.data(), mr);
  }

  Fn fn;
  int mr;
  ag::AlignedBuffer<T> a, b, c;
};

/// k-steps per second of one sample of kCallsPerSample calls.
double ksteps_per_second(const std::function<void(int)>& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run(kCallsPerSample);
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(kCallsPerSample) * static_cast<double>(kKc) / s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(KernelRate, TwelveFmaKernelsRetireKStepsAtOneRate) {
  if (!kOptimized) GTEST_SKIP() << "timing needs an optimized (NDEBUG) build";
  if (kSanitized) GTEST_SKIP() << "sanitizer instrumentation distorts kernel timing";
  if (!ag::avx2_kernels_available()) GTEST_SKIP() << "no AVX2/FMA kernels in this build";

  const ag::SMicrokernel* s16x6 = nullptr;
  for (const auto& k : ag::all_smicrokernels())
    if (k.name == "savx2_16x6") s16x6 = &k;
  ASSERT_NE(s16x6, nullptr);
  const ag::Microkernel& d8x6 = ag::microkernel_by_name("avx2_8x6");
  const ag::Microkernel& d12x4 = ag::microkernel_by_name("avx2_12x4");

  Sliver<double> s8x6(d8x6.fn, d8x6.shape.mr, d8x6.shape.nr);
  Sliver<double> s12x4(d12x4.fn, d12x4.shape.mr, d12x4.shape.nr);
  Sliver<float> s16(s16x6->fn, s16x6->mr, s16x6->nr);
  const std::vector<std::string> names = {d8x6.name, d12x4.name, s16x6->name};
  const std::vector<std::function<void(int)>> runs = {
      [&](int n) { s8x6.run(n); }, [&](int n) { s12x4.run(n); }, [&](int n) { s16.run(n); }};

  for (const auto& run : runs) run(kCallsPerSample);  // warm caches and clocks
  std::vector<std::vector<double>> rates(runs.size());
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::size_t k = (static_cast<std::size_t>(r) + i) % runs.size();
      rates[k].push_back(ksteps_per_second(runs[k]));
    }
  }

  const double base = median(rates[0]);
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const double ratio = median(rates[k]) / base;
    std::printf("%-11s median %.3g k-steps/s, %.2fx %s\n", names[k].c_str(), median(rates[k]),
                ratio, names[0].c_str());
    EXPECT_GE(ratio, kFloor) << names[k] << " retires k-steps at " << ratio << "x the rate of "
                             << names[0] << " with the same 12 FMAs per k-step";
  }
}

}  // namespace
