// Lock-free log-bucketed histograms for the serving-telemetry layer.
//
// Two bucket geometries, both with pure (testable) index math:
//
//   latency   — log-linear ("HDR-lite"): 4 linear sub-buckets per
//               power-of-two octave of nanoseconds. Buckets 0..3 are the
//               exact values 0..3 ns; above that each octave [2^e, 2^e+1)
//               splits into 4 equal sub-buckets, giving <= 25% relative
//               bucket width across ~9 decades. The last bucket is the
//               overflow bucket (every value >= its lower bound).
//   efficiency — linear in [0, 1.28) with 0.02-wide buckets (the Gflops
//               fraction of calibrated peak); negatives clamp to bucket 0
//               and values >= 1.26 land in the overflow (last) bucket.
//
// AtomicHistogram is the recording side: every field is a relaxed atomic,
// so concurrent recorders never lock and a snapshot never tears a single
// counter (cross-counter consistency is statistical, which is fine for
// distributions). Histogram is the plain mergeable snapshot; merging is
// element-wise addition and therefore associative and commutative.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace ag::obs {

// ---- latency bucket math -------------------------------------------------

inline constexpr int kLatencySubBits = 2;  // 4 sub-buckets per octave
inline constexpr int kLatencyBuckets = 128;

/// Bucket index for a duration in nanoseconds. Total order: every ns maps
/// to exactly one bucket and larger durations never map to smaller
/// buckets. Index kLatencyBuckets-1 is the overflow bucket.
constexpr int latency_bucket(std::uint64_t ns) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kLatencySubBits;  // 4
  if (ns < kSub) return static_cast<int>(ns);
  const int msb = std::bit_width(ns) - 1;  // position of the highest set bit, >= 2
  const int sub = static_cast<int>((ns >> (msb - kLatencySubBits)) & (kSub - 1));
  const int idx = static_cast<int>(kSub) + (msb - kLatencySubBits) * static_cast<int>(kSub) + sub;
  return idx < kLatencyBuckets ? idx : kLatencyBuckets - 1;
}

/// Inclusive lower bound of a latency bucket, in nanoseconds.
constexpr std::uint64_t latency_bucket_lower_ns(int bucket) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kLatencySubBits;
  if (bucket < static_cast<int>(kSub)) return static_cast<std::uint64_t>(bucket);
  const int octave = (bucket - static_cast<int>(kSub)) / static_cast<int>(kSub);
  const int sub = (bucket - static_cast<int>(kSub)) % static_cast<int>(kSub);
  const int e = octave + kLatencySubBits;  // [2^e, 2^(e+1)) split into 4
  return (std::uint64_t{1} << e) +
         static_cast<std::uint64_t>(sub) * (std::uint64_t{1} << (e - kLatencySubBits));
}

/// Exclusive upper bound of a latency bucket in nanoseconds (the overflow
/// bucket has no finite upper bound; callers special-case it).
constexpr std::uint64_t latency_bucket_upper_ns(int bucket) {
  return latency_bucket_lower_ns(bucket + 1);
}

// ---- efficiency bucket math ----------------------------------------------

inline constexpr int kEfficiencyBuckets = 64;
inline constexpr double kEfficiencyBucketWidth = 0.02;  // covers [0, 1.26) + overflow

constexpr int efficiency_bucket(double eff) {
  if (!(eff > 0)) return 0;  // negatives and NaN clamp low
  const int idx = static_cast<int>(eff / kEfficiencyBucketWidth);
  return idx < kEfficiencyBuckets ? idx : kEfficiencyBuckets - 1;
}

constexpr double efficiency_bucket_lower(int bucket) {
  return bucket * kEfficiencyBucketWidth;
}

// ---- plain (snapshot / merge) histogram ----------------------------------

/// Mergeable histogram snapshot. `sum` and `max` are in the recorded unit
/// (seconds for latency, the raw fraction for efficiency).
template <int N>
struct Histogram {
  std::array<std::uint64_t, N> counts{};
  std::uint64_t total = 0;
  double sum = 0;
  double max = 0;

  Histogram& operator+=(const Histogram& o) {
    for (int i = 0; i < N; ++i) counts[i] += o.counts[i];
    total += o.total;
    sum += o.sum;
    if (o.max > max) max = o.max;
    return *this;
  }
  double mean() const { return total ? sum / static_cast<double>(total) : 0.0; }
};

using LatencyHistogram = Histogram<kLatencyBuckets>;
using EfficiencyHistogram = Histogram<kEfficiencyBuckets>;

/// q-quantile (q in [0,1]) of a latency histogram, in seconds: the
/// geometric midpoint of the first bucket whose cumulative count reaches
/// q*total, clamped to the recorded maximum (which also stands in for the
/// unbounded overflow bucket). 0 when empty.
inline double latency_quantile(const LatencyHistogram& h, double q) {
  if (h.total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target sample (1-based), ceil(q * total) but at least 1.
  const double target = q * static_cast<double>(h.total);
  std::uint64_t rank = static_cast<std::uint64_t>(target);
  if (static_cast<double>(rank) < target) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (int i = 0; i < kLatencyBuckets; ++i) {
    cum += h.counts[i];
    if (cum >= rank) {
      if (i == kLatencyBuckets - 1) return h.max;  // overflow bucket
      const double lo = static_cast<double>(latency_bucket_lower_ns(i));
      const double hi = static_cast<double>(latency_bucket_upper_ns(i));
      const double mid = (lo + hi) * 0.5 * 1e-9;
      return h.max > 0 && mid > h.max ? h.max : mid;
    }
  }
  return h.max;
}

// ---- lock-free recording side --------------------------------------------

/// Recording histogram: relaxed atomic counters only, no locks anywhere.
/// Values are recorded pre-scaled to integers (nanoseconds for latency,
/// micro-units for efficiency); snapshot(scale) converts sum/max back to
/// the natural unit.
template <int N>
struct AtomicHistogram {
  std::array<std::atomic<std::uint64_t>, N> counts{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};

  // No separate total counter: it is derivable as the sum of the bucket
  // counts at snapshot time, and the record path is hot enough that one
  // fewer contended fetch_add is worth the O(N) snapshot-side add.
  void record(int bucket, std::uint64_t scaled_value) {
    counts[static_cast<std::size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(scaled_value, std::memory_order_relaxed);
    std::uint64_t cur = max.load(std::memory_order_relaxed);
    while (scaled_value > cur &&
           !max.compare_exchange_weak(cur, scaled_value, std::memory_order_relaxed)) {
    }
  }

  /// Total recorded so far (sum over buckets; snapshot-side only).
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (int i = 0; i < N; ++i) t += counts[i].load(std::memory_order_relaxed);
    return t;
  }

  Histogram<N> snapshot(double scale) const {
    Histogram<N> out;
    for (int i = 0; i < N; ++i) {
      out.counts[i] = counts[i].load(std::memory_order_relaxed);
      out.total += out.counts[i];
    }
    out.sum = static_cast<double>(sum.load(std::memory_order_relaxed)) * scale;
    out.max = static_cast<double>(max.load(std::memory_order_relaxed)) * scale;
    return out;
  }

  void reset() {
    for (int i = 0; i < N; ++i) counts[i].store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
    max.store(0, std::memory_order_relaxed);
  }
};

}  // namespace ag::obs
