// Small integer helpers used throughout the blocking and simulator code.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/check.hpp"

namespace ag {

/// ceil(a / b) for non-negative a and positive b.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return (a + b - 1) / b;
}

/// Smallest multiple of `b` that is >= `a`.
template <typename T>
constexpr T round_up(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return ceil_div(a, b) * b;
}

/// Largest multiple of `b` that is <= `a`.
template <typename T>
constexpr T round_down(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return (a / b) * b;
}

/// True when m*n*k <= t^3, for positive m, n, k and t, without overflow
/// at any int64 value.
constexpr bool volume_at_most(std::int64_t m, std::int64_t n, std::int64_t k, std::int64_t t) {
  // For t >= 2^21, t^3 exceeds int64 range, so every representable
  // product qualifies.
  if (t >= (std::int64_t{1} << 21)) return true;
  const std::int64_t t3 = t * t * t;
  if (m > t3) return false;
  if (n > t3 / m) return false;  // m*n > t3 implies the product does too
  return k <= t3 / (m * n);      // exact: k > floor(t3/mn) <=> k*mn > t3
}

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t x) {
  unsigned n = 0;
  while (x > 1) {
    x >>= 1;
    ++n;
  }
  return n;
}

}  // namespace ag
