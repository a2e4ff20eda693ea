// Hardware performance-counter observability (the silicon side of the
// paper's measurement methodology).
//
// The paper grounds its model in perf-counter measurements: the Table IV
// micro-benchmarked efficiency ceiling, the Table V ldr/fmla instruction
// ratios and the Table VII L1-dcache miss rates all come from hardware
// PMU reads. This layer reproduces that capability: a PmuGroup opens one
// perf_event_open counter per event for the calling thread (cycles,
// retired instructions, L1D accesses/refills, L2 refills, backend stall
// cycles, branch misses, plus the software task clock), and a
// PmuCollector accumulates begin/end deltas per pool rank and per
// blocking layer (total / small / pack-A / pack-B / GEBP / barrier): the
// obs::Region of every layer boundary that has a PMU layer
// (obs/region.hpp) reads the rank's counters on entry and exit.
//
// Graceful degradation is a hard requirement, not an afterthought: when
// perf_event_open is unavailable (perf_event_paranoid, seccomp'd
// containers, missing PMU virtualization, non-Linux hosts) each event
// falls back independently. Cycles degrade to a timestamp-derived
// synthetic count (1 "cycle" == 1 ns of task-clock or wall time, flagged
// kSynthetic); events with no timestamp analogue report zero and flag
// kUnavailable. Every consumer can therefore render a `source: hw|sw|syn`
// column and every test passes on counterless hosts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ag::obs {

/// The counter set of the paper's hardware experiments (Section V), in
/// the generic-event vocabulary so the same code runs on ARMv8 (where
/// L1D_CACHE_REFILL etc. are the native PMU events) and on x86 hosts.
enum class PmuEvent : int {
  kCycles = 0,       // PERF_COUNT_HW_CPU_CYCLES
  kInstructions,     // PERF_COUNT_HW_INSTRUCTIONS (retired)
  kL1dAccess,        // L1D read accesses (ARM: L1D_CACHE)
  kL1dRefill,        // L1D read misses  (ARM: L1D_CACHE_REFILL)
  kL2Refill,         // last-level read misses (ARM: L2D_CACHE_REFILL)
  kStallCycles,      // PERF_COUNT_HW_STALLED_CYCLES_BACKEND
  kBranchMisses,     // PERF_COUNT_HW_BRANCH_MISSES
  kTaskClockNs,      // PERF_COUNT_SW_TASK_CLOCK (ns on-CPU; the fallback base)
  kCount
};
inline constexpr int kPmuEventCount = static_cast<int>(PmuEvent::kCount);

const char* to_string(PmuEvent e);

/// Where a reported value came from. kHardware: a real PMU counter.
/// kSoftware: a kernel software event (task clock). kSynthetic: derived
/// from timestamps because the real counter could not be opened.
/// kUnavailable: no honest substitute exists; the value is zero.
enum class PmuSource : int { kHardware = 0, kSoftware, kSynthetic, kUnavailable };

const char* to_string(PmuSource s);

/// One snapshot of the event values (multiplex-scaled when the kernel
/// time-shared the PMU). Plain data; derived metrics guard against zero
/// denominators.
struct PmuCounts {
  std::array<std::uint64_t, kPmuEventCount> value{};

  std::uint64_t operator[](PmuEvent e) const { return value[static_cast<int>(e)]; }
  std::uint64_t& operator[](PmuEvent e) { return value[static_cast<int>(e)]; }

  PmuCounts& operator+=(const PmuCounts& o);
  /// Saturating per-event difference (end - begin), for region deltas.
  static PmuCounts delta(const PmuCounts& begin, const PmuCounts& end);

  /// Retired instructions per cycle.
  double ipc() const;
  /// L1D read refills / L1D read accesses — the Table VII metric.
  double l1d_miss_rate() const;
  /// Backend-stall cycles / cycles.
  double stall_fraction() const;
};

/// Forces the no-perf fallback path for the whole process (tests use this
/// to exercise degradation on hosts that do have counters): the inverse
/// of the ARMGEMM_PMU knob. Groups opened before the change keep their
/// mode; reopen to apply.
void pmu_set_forced_fallback(bool forced);
bool pmu_forced_fallback();

/// A per-thread set of counters. open() must be called on the thread to
/// be measured (perf events attach to the calling thread); read() and
/// close() may be called from anywhere but race with no one by contract
/// (PmuCollector serializes with a per-rank mutex).
class PmuGroup {
 public:
  PmuGroup() = default;
  ~PmuGroup();

  PmuGroup(const PmuGroup&) = delete;
  PmuGroup& operator=(const PmuGroup&) = delete;

  /// Opens every event for the calling thread, falling back per event.
  /// Returns true when at least one hardware event opened.
  bool open();
  void close();
  bool is_open() const { return open_; }

  PmuSource source(PmuEvent e) const { return events_[static_cast<int>(e)].source; }
  bool any_hardware() const { return any_hw_; }

  /// Current totals since open(). Synthetic cycles are derived from the
  /// task clock when it opened, otherwise from the steady clock.
  PmuCounts read() const;

  /// One-shot probe: can this process open any hardware PMU event right
  /// now? Respects pmu_set_forced_fallback / ARMGEMM_PMU=off.
  static bool hardware_available();

 private:
  struct Slot {
    int fd = -1;
    PmuSource source = PmuSource::kUnavailable;
  };
  std::array<Slot, kPmuEventCount> events_{};
  bool open_ = false;
  bool any_hw_ = false;
  std::uint64_t wall_epoch_ns_ = 0;  // steady-clock base for the last-ditch fallback
};

/// The blocking layers hardware events are attributed to: the PMU
/// column of obs/region.hpp's boundary table. In-GEBP kernel execution
/// counts under kGebp, keeping regions block-granular.
enum class PmuLayer : int {
  kTotal = 0,  // whole dgemm call
  kPackA,
  kPackB,
  kGebp,
  kBarrier,
  kSmall,  // unpacked small path (whole multiply, one region)
  kCount
};
inline constexpr int kPmuLayerCount = static_cast<int>(PmuLayer::kCount);

const char* to_string(PmuLayer l);

/// Aggregates region deltas per pool rank and per layer. Attach to a
/// GemmStats with set_pmu(); every obs::Region of a boundary with a PMU
/// layer then records one region here. Counter groups are opened
/// lazily on the first region a rank's thread executes, and transparently
/// reopened if a different thread later records under the same rank (the
/// delta spanning the reopen is discarded, never misattributed).
class PmuCollector {
 public:
  static constexpr int kDefaultMaxThreads = 64;

  explicit PmuCollector(int max_threads = kDefaultMaxThreads);
  ~PmuCollector();

  PmuCollector(const PmuCollector&) = delete;
  PmuCollector& operator=(const PmuCollector&) = delete;

  int max_threads() const { return static_cast<int>(ranks_.size()); }

  /// Event totals accumulated under `layer`, summed over ranks.
  PmuCounts layer_totals(PmuLayer layer) const;
  /// Number of regions that contributed to `layer`.
  std::uint64_t layer_regions(PmuLayer layer) const;
  /// Totals for one rank (attribution beyond max_threads saturates into
  /// the last rank, mirroring GemmStats/Tracer).
  PmuCounts rank_layer_totals(int rank, PmuLayer layer) const;

  /// Per-event provenance, merged over every group opened so far: an
  /// event is reported at the best source any rank achieved (hardware
  /// beats software beats synthetic beats unavailable). Before any region
  /// ran, reports the probe result for this process.
  std::array<PmuSource, kPmuEventCount> sources() const;
  /// True when at least one rank's group opened a real hardware counter.
  bool any_hardware() const;
  /// Regions whose delta was discarded because the rank's group had to be
  /// reopened mid-region (thread migration across ranks).
  std::uint64_t discarded_regions() const;

  /// Zeroes every accumulator (counter groups stay open).
  void reset();

  /// {"available":..,"forced_fallback":..,"events":{"cycles":"hw",..},
  ///  "layers":{"total":{"regions":..,"cycles":..,..},..}}
  std::string to_json() const;

 private:
  friend class Region;  // opens groups and accumulates deltas (obs/region.hpp)

  struct RankState {
    mutable std::mutex mutex;
    PmuGroup group;
    std::thread::id owner;
    std::uint64_t generation = 0;
    std::array<std::array<std::uint64_t, kPmuEventCount>, kPmuLayerCount> accum{};
    std::array<std::uint64_t, kPmuLayerCount> regions{};
    std::uint64_t discarded = 0;
    bool ever_opened = false;
  };

  RankState& rank(int r);
  const RankState& rank(int r) const;

  std::vector<std::unique_ptr<RankState>> ranks_;
};

}  // namespace ag::obs
