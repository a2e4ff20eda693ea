// Flight recorder: a fixed-size per-thread ring buffer of recent GEMM
// call records, cheap enough to leave on under serving traffic and dumped
// as JSON on demand, on SIGUSR2, or automatically when the model-drift
// detector fires.
//
// One FlightRecorder belongs to one telemetry lane (one recording
// thread). Writes take a per-recorder mutex — uncontended in steady state
// because only the owning thread records; a dump (rare) briefly contends.
// That keeps the reader trivially torn-free and ThreadSanitizer-clean,
// while the high-rate histogram side of telemetry stays lock-free.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/phase.hpp"

namespace ag::obs {

/// How the driver executed a call (core/gemm.cpp dispatch; kBatch marks
/// one entry of a dgemm_batch call run through the persistent queue).
/// kSmall is the unpacked small path: serial up to 50^3, above it on the
/// context's ranks, where a record's `threads` counts the ranks that ran
/// at least one of the call's tickets, so efficiency and expected Gflops
/// price the ranks that did the work.
enum class ScheduleKind : int { kSmall = 0, kSerial, kParallel, kBatch, kCount };
const char* to_string(ScheduleKind k);

/// One completed dgemm call as the flight recorder remembers it.
struct CallRecord {
  double t = 0;  // seconds since the telemetry epoch (enable/reset)
  std::int64_t m = 0, n = 0, k = 0;
  int threads = 1;          // ranks that ran the call (kSmall: ranks that ran a ticket)
  ScheduleKind schedule = ScheduleKind::kSerial;
  int shape_class = 0;      // ShapeClass::index()
  double seconds = 0;       // wall time of the call
  double gflops = 0;
  double efficiency = 0;        // gflops / (threads * calibrated peak); 0 unknown
  double expected_gflops = 0;   // Section III model prediction; 0 unknown
  bool pmu_hardware = false;    // provenance: real PMU counters in this process
  // Batch-entry scheduling detail (kBatch records; zero otherwise):
  double queue_wait_seconds = 0;    // submit -> first-ticket-start delay
  std::uint64_t cache_hits = 0;     // panel-cache hits over the entry's tickets
  std::uint64_t cache_misses = 0;   // panel-cache misses (panels this entry packed)
  // Phase timeline (obs/phase): per-phase seconds summed over the ranks
  // that worked on the call, plus the rank count. All-zero when phase
  // attribution was off for the call.
  CallPhases phases;

  /// True when the call carried a phase timeline.
  bool has_phases() const { return phases.total() > 0; }

  /// One JSON object (all fields; schedule as a string; the batch
  /// scheduling fields appear only on kBatch records, the "phases"
  /// object only when a timeline was recorded).
  std::string to_json() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t depth) { resize(depth); }

  void record(const CallRecord& r);

  /// The retained records, oldest first (at most depth() of them).
  std::vector<CallRecord> recent() const;

  std::size_t depth() const;
  /// Calls recorded since construction or the last reset (>= retained).
  std::uint64_t recorded() const;

  /// Drops every record; `depth` <= 0 keeps the current capacity.
  void reset(std::int64_t depth = 0);

 private:
  void resize(std::size_t depth);

  mutable std::mutex mutex_;
  std::vector<CallRecord> ring_;
  std::uint64_t head_ = 0;  // total records ever written
};

/// `[record, record, ...]` oldest first.
std::string flight_to_json(const std::vector<CallRecord>& records);

}  // namespace ag::obs
