// Opt-in per-layer GEMM instrumentation (the measurement side of the
// paper's Section III model).
//
// A GemmStats collector is attached to a Context; the dgemm driver then
// records, per pool thread, how long each blocking layer ran and how many
// bytes it moved: pack-A / pack-B time and bytes (layers 3/2), GEBP time
// and register-kernel invocations (layers 4-7), C traffic, and barrier
// wait. Totals aggregate race-free across threads because every counter
// is a relaxed atomic in a cache-line-sized per-rank slot. The driver
// records through obs::Region (obs/region.hpp), whose table names the
// slot fields each layer boundary adds to.
//
// Cost model: with no collector attached the hot path pays one pointer
// test per *block* (not per kernel tile); compiling with
// ARMGEMM_STATS_DISABLED folds even that away (Context::stats() becomes a
// constant nullptr).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ag::obs {

class Tracer;
class PmuCollector;

/// True when the library was compiled with stats hooks (the default);
/// false under -DARMGEMM_STATS=OFF (ARMGEMM_STATS_DISABLED).
inline constexpr bool stats_compiled_in =
#ifdef ARMGEMM_STATS_DISABLED
    false;
#else
    true;
#endif

/// One snapshot of the per-layer counters. Plain data: safe to copy,
/// compare and serialize. Byte counts are bytes *written to / read from
/// packed buffers and C*, i.e. the words W of Eq. (2) times 8.
struct LayerCounters {
  std::uint64_t gemm_calls = 0;
  std::uint64_t pack_a_calls = 0;    // one per packed mc x kc block of A
  std::uint64_t pack_b_calls = 0;    // one per pack_b / pack_b_slivers call
  std::uint64_t gebp_calls = 0;      // one per GEBP block-panel multiply
  std::uint64_t kernel_calls = 0;    // register-kernel (mr x nr tile) invocations
  std::uint64_t small_calls = 0;     // unpacked small-path multiplies
  std::uint64_t pack_a_bytes = 0;    // bytes written into packed A buffers
  std::uint64_t pack_b_bytes = 0;    // bytes written into packed B panels
  std::uint64_t c_bytes = 0;         // C panel traffic: read + write per GEBP
  double pack_a_seconds = 0;
  double pack_b_seconds = 0;
  double gebp_seconds = 0;
  double small_seconds = 0;          // time inside the unpacked small path
  double barrier_seconds = 0;        // time ranks waited at the B-panel barrier
  double total_seconds = 0;          // wall time inside dgemm (driver thread)
  double flops = 0;                  // 2*m*n*k per call

  LayerCounters& operator+=(const LayerCounters& o);

  /// Bytes moved through all counted channels.
  double total_bytes() const {
    return static_cast<double>(pack_a_bytes + pack_b_bytes + c_bytes);
  }
  /// Effective compute-to-memory ratio gamma = F / W (Eq. 2), in
  /// flops per 8-byte word across the counted traffic.
  double gamma() const;
  /// Achieved Gflops over the recorded wall time.
  double gflops() const;
  /// Time recorded outside pack/GEBP/small/barrier (loop overhead,
  /// beta-scale).
  double other_seconds() const;

  /// One JSON object with every field plus the derived metrics.
  std::string to_json() const;
};

/// Cache-line-sized accumulator for one pool rank. All adds are relaxed
/// atomics, so slots stay race-free even if two host threads ever share a
/// rank (e.g. concurrent serial calls through one collector).
///
/// Snapshot consistency: every add (and reset) brackets its field
/// updates in a seqlock version — odd while an update is in flight. A
/// writer takes the odd version by CAS, so host threads sharing a slot
/// (concurrent C API callers all record into slot 0) write one at a time.
/// A snapshot that observes an odd or changed version retries until it
/// reads a quiescent slot, so it never mixes fields from before and after
/// one recording (e.g. a call's flops without its seconds).
struct alignas(64) ThreadSlot {
  std::atomic<std::uint64_t> gemm_calls{0};
  std::atomic<std::uint64_t> pack_a_calls{0};
  std::atomic<std::uint64_t> pack_b_calls{0};
  std::atomic<std::uint64_t> gebp_calls{0};
  std::atomic<std::uint64_t> kernel_calls{0};
  std::atomic<std::uint64_t> small_calls{0};
  std::atomic<std::uint64_t> pack_a_bytes{0};
  std::atomic<std::uint64_t> pack_b_bytes{0};
  std::atomic<std::uint64_t> c_bytes{0};
  std::atomic<double> pack_a_seconds{0};
  std::atomic<double> pack_b_seconds{0};
  std::atomic<double> gebp_seconds{0};
  std::atomic<double> small_seconds{0};
  std::atomic<double> barrier_seconds{0};
  std::atomic<double> total_seconds{0};
  std::atomic<double> flops{0};
  /// Seqlock version: odd while an add/reset is updating the fields.
  std::atomic<std::uint64_t> version{0};

  /// The fields one layer boundary adds to (obs/region.hpp's table);
  /// null where it has none.
  struct Counters {
    std::atomic<std::uint64_t> ThreadSlot::*calls = nullptr;
    std::atomic<std::uint64_t> ThreadSlot::*bytes = nullptr;
    std::atomic<double> ThreadSlot::*seconds = nullptr;
  };
  /// What one region moved and computed, beyond its call and seconds.
  struct Work {
    std::uint64_t bytes = 0;    // into Counters::bytes
    std::uint64_t kernels = 0;  // register-kernel invocations (kernel_calls)
    double flops = 0;           // 2*m*n*k of a dgemm call (flops)
  };

  /// One region: one call, its work and its seconds, as one seqlock write.
  void add(const Counters& into, double seconds, const Work& work);

  /// Consistent multi-field read (see the seqlock note above).
  LayerCounters snapshot() const;
  void reset();
};
static_assert(sizeof(ThreadSlot) <= 192, "keep one slot within three cache lines");

/// The collector. Attach with Context::set_stats(&stats); detach with
/// set_stats(nullptr) before destroying it. One collector may serve many
/// sequential calls; reset() between phases to segment measurements.
class GemmStats {
 public:
  static constexpr int kDefaultMaxThreads = 64;

  explicit GemmStats(int max_threads = kDefaultMaxThreads);

  /// Accumulator for a pool rank. Ranks beyond max_threads share the last
  /// slot (counts stay exact; per-thread attribution saturates).
  ThreadSlot& slot(int rank);

  int max_threads() const { return static_cast<int>(slots_.size()); }

  /// Zeroes every slot (not synchronized with in-flight recording).
  void reset();

  /// Sum of all per-thread slots.
  LayerCounters totals() const;

  /// Per-rank snapshots for ranks that recorded anything.
  std::vector<LayerCounters> per_thread() const;

  /// {"totals": {...}, "threads": [{...}, ...]}
  std::string to_json() const;

  /// Optional tracer fed by the same regions; null (default) disables
  /// span capture.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Optional hardware-counter collector (obs/pmu) fed by the same
  /// regions; null (default) disables PMU capture.
  void set_pmu(PmuCollector* pmu) { pmu_ = pmu; }
  PmuCollector* pmu() const { return pmu_; }

 private:
  std::vector<ThreadSlot> slots_;
  Tracer* tracer_ = nullptr;
  PmuCollector* pmu_ = nullptr;
};

/// Relaxed add for atomic doubles (CAS loop; fetch_add(double) is C++20
/// but not yet universally lock-free-lowered).
void atomic_add(std::atomic<double>& acc, double v);

}  // namespace ag::obs
