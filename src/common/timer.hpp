// The library's one clock, and wall-clock timing helpers built on it.
//
// Every timestamp and interval in the library (instrumentation regions,
// telemetry records, the pools' queue waits, spin deadlines, benchmarks)
// comes from now_ns / now_seconds, so intervals taken in different
// layers are on the same monotonic timeline.
#pragma once

#include <chrono>
#include <cstdint>

namespace ag {

/// Monotonic now (steady_clock), in nanoseconds since the clock's epoch.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// The same clock in seconds.
inline double now_seconds() { return static_cast<double>(now_ns()) * 1e-9; }

class Timer {
 public:
  Timer() : start_ns_(now_ns()) {}

  void reset() { start_ns_ = now_ns(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const { return static_cast<double>(now_ns() - start_ns_) * 1e-9; }

 private:
  std::uint64_t start_ns_;
};

/// GFLOPS for an m x n x k GEMM (2*m*n*k flops) taking `seconds`.
inline double gemm_gflops(double m, double n, double k, double seconds) {
  return 2.0 * m * n * k / seconds * 1e-9;
}

}  // namespace ag
