// The one instrumentation primitive: obs::Region, opened once at every
// layer boundary the GEMM drivers instrument (core/gemm.cpp,
// core/gemm_batch.cpp).
//
// kBoundarySinks below is the only place that says what a boundary
// feeds: its Chrome-trace span, its PMU layer, its phase, the GemmStats
// counters it adds to, and whether serving telemetry takes its interval.
// A region whose sinks are all off for its boundary reads no clock and
// makes no out-of-line call. Otherwise it reads the one clock
// (common/timer.hpp) once on entry and once on exit, and hands that one
// interval to every enabled sink, so a boundary's span, phase seconds and
// GemmStats seconds are the same number. PMU counters are read outside
// the two clock reads, so their syscalls stay out of the interval. A
// driver opens no region for a rank that has no work at a boundary (an
// empty sliver range packs nothing and records nothing). Under
// -DARMGEMM_STATS=OFF a region compiles to nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>

#include "common/timer.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/phase.hpp"
#include "obs/pmu.hpp"
#include "obs/tracer.hpp"

namespace ag::obs {

/// The layer boundaries the drivers instrument; one row each in
/// kBoundarySinks.
enum class Boundary : int {
  kCall,           // one dgemm call, on its caller's lane
  kSmall,          // the unpacked small path (whole multiply)
  kPackA,          // one packed mc x kc block of A
  kPackB,          // one rank's non-empty sliver range of a kc x nc panel of B
  kGebp,           // one block-panel multiply
  kBarrier,        // one rank's wait at a panel barrier
  kEpilogue,       // the beta-only pass when no multiply runs
  kTicketScale,    // one batch ticket, by entry kind
  kTicketSmall,
  kTicketBlocked,
};

/// The sinks one call (or one rank of it) records into. The default
/// records nothing: sgemm and the tuner's probes pass it, because f32
/// calls would give the f64-calibrated drift model false anomalies and a
/// probe must not perturb the serving counters.
struct Sinks {
  GemmStats* stats = nullptr;    // per-lane counters, and its Tracer and PmuCollector
  CallPhases* phases = nullptr;  // phase timeline
  bool telemetry = false;        // serving telemetry takes the call and barrier intervals
  /// Tracer lane, stats slot and PMU rank. A parallel call's rank r
  /// records on lane + r; a batch ticket on its scheduler lane.
  int lane = 0;
};

inline constexpr PmuLayer kNoPmuLayer = PmuLayer::kCount;
inline constexpr Phase kNoPhase = static_cast<Phase>(kPhaseCount);

/// What one boundary feeds, one column per sink.
struct BoundarySinks {
  const char* span;             // Chrome-trace span name
  PmuLayer pmu;                 // or kNoPmuLayer
  Phase phase;                  // or kNoPhase
  ThreadSlot::Counters stats;   // GemmStats slot fields; all null: none
  bool telemetry;               // the driver hands the interval to telemetry
};

inline constexpr BoundarySinks kBoundarySinks[] = {
    // span, PMU layer, phase, GemmStats {calls, bytes, seconds}, telemetry
    {"dgemm", PmuLayer::kTotal, kNoPhase,
     {&ThreadSlot::gemm_calls, nullptr, &ThreadSlot::total_seconds}, true},
    {"small_gemm", PmuLayer::kSmall, Phase::kKernel,
     {&ThreadSlot::small_calls, &ThreadSlot::c_bytes, &ThreadSlot::small_seconds}, false},
    {"pack_a", PmuLayer::kPackA, Phase::kPackA,
     {&ThreadSlot::pack_a_calls, &ThreadSlot::pack_a_bytes, &ThreadSlot::pack_a_seconds}, false},
    {"pack_b", PmuLayer::kPackB, Phase::kPackB,
     {&ThreadSlot::pack_b_calls, &ThreadSlot::pack_b_bytes, &ThreadSlot::pack_b_seconds}, false},
    {"gebp", PmuLayer::kGebp, Phase::kKernel,
     {&ThreadSlot::gebp_calls, &ThreadSlot::c_bytes, &ThreadSlot::gebp_seconds}, false},
    {"barrier", PmuLayer::kBarrier, Phase::kBarrier,
     {nullptr, nullptr, &ThreadSlot::barrier_seconds}, true},
    {"epilogue", kNoPmuLayer, Phase::kEpilogue, {}, false},
    {"ticket/scale", kNoPmuLayer, kNoPhase, {}, false},
    {"ticket/small", kNoPmuLayer, kNoPhase, {}, false},
    {"ticket/blocked", kNoPmuLayer, kNoPhase, {}, false},
};

static_assert(std::size(kBoundarySinks) == static_cast<std::size_t>(Boundary::kTicketBlocked) + 1,
              "one kBoundarySinks row per Boundary, in enum order");

inline constexpr const BoundarySinks& sinks_of(Boundary b) {
  return kBoundarySinks[static_cast<int>(b)];
}

/// A closed region's interval on the common clock.
struct Interval {
  double seconds = 0;  // exit - entry
  double end = 0;      // exit, as a now_seconds() reading
};

class Region {
 public:
  /// Opens a region at boundary `at` on `sinks`, which must outlive it.
  Region(const Sinks& sinks, Boundary at) {
#ifndef ARMGEMM_STATS_DISABLED
    const BoundarySinks& row = sinks_of(at);
    GemmStats* const stats = sinks.stats;
    const bool stats_on = stats != nullptr &&
                          (row.stats.seconds != nullptr || stats->tracer() != nullptr ||
                           (row.pmu != kNoPmuLayer && stats->pmu() != nullptr));
    if (!stats_on && !(sinks.phases && row.phase != kNoPhase) &&
        !(sinks.telemetry && row.telemetry))
      return;
    sinks_ = &sinks;
    at_ = at;
    if (stats_on) {
      detail_.emplace();
      if (row.pmu != kNoPmuLayer && stats->pmu() != nullptr) pmu_begin();
    }
    t0_ = now_ns();
#else
    (void)sinks, (void)at;
#endif
  }
  Region(const Sinks&&, Boundary) = delete;
  ~Region() { close(); }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// True while GemmStats (with its tracer and PMU collector), the one
  /// sink that reads describe(), records this region. Describe the
  /// region under this test, so no other region computes its work.
  explicit operator bool() const { return detail_.has_value(); }

  /// The span's args (block coordinates, a batch ticket's scheduling
  /// extras) and what GemmStats counts for the region.
  void describe(const BlockArgs& args, const ThreadSlot::Work& work = {}) {
    if (!detail_) return;
    detail_->args = args;
    detail_->work = work;
  }

  /// Ends the region now and returns its interval; the destructor then
  /// does nothing. {0, 0} when no sink was on.
  Interval close() {
    if (!sinks_) return {};
    const std::uint64_t t1 = now_ns();
    const Interval iv{static_cast<double>(t1 - t0_) * 1e-9, static_cast<double>(t1) * 1e-9};
    const Phase phase = sinks_of(at_).phase;
    if (sinks_->phases && phase != kNoPhase)
      sinks_->phases->seconds[static_cast<int>(phase)] += iv.seconds;
    if (detail_) record(iv);
    sinks_ = nullptr;
    detail_.reset();
    return iv;
  }

 private:
  /// What only GemmStats, the tracer and the PMU read, kept apart so a
  /// region without them initializes none of it.
  struct Detail {
    BlockArgs args;
    ThreadSlot::Work work;
    std::uint64_t pmu_generation = 0;
    PmuCounts pmu_begin;
  };

  void pmu_begin();
  /// Fans the interval out to the stats slot, the tracer and the PMU.
  void record(const Interval& iv);

  const Sinks* sinks_ = nullptr;  // null: closed, or no sink takes this boundary
  Boundary at_ = Boundary::kCall;
  std::uint64_t t0_ = 0;
  std::optional<Detail> detail_;
};

}  // namespace ag::obs
