// Black-box anomaly forensics: when something goes wrong in serving
// traffic, capture everything needed to diagnose it after the fact —
// without a debugger, a rerun, or a human watching.
//
// Three triggers:
//
//   drift     — the model-drift detector flagged a sustained
//               measured-vs-expected divergence (onset edge only);
//   slow_call — one call exceeded ARMGEMM_SLOW_CALL_FACTOR times its
//               shape class's rolling p99 latency (per recording lane,
//               refreshed every 64 records after a 64-record warm-up);
//   manual    — armgemm_forensics_capture() / telemetry_forensics_capture().
//
// A capture produces one JSON bundle (schema "armgemm-forensics/1"):
// the offending call's record and phase timeline, the measured-vs-
// expected phase split (Section III pricing of the blocking arithmetic),
// the flight-recorder window around the call, the scheduler /
// panel-cache / tune snapshots, and PMU provenance. Bundles are written
// atomically (tmp + rename) into ARMGEMM_FORENSICS_DIR as
// forensics-<seq>-<reason>.json; with no directory configured the
// in-memory last-capture summary (exposed through the telemetry JSON
// "forensics" object and armgemm-top) still updates.
//
// Automatic triggers are rate-limited to one capture per
// ARMGEMM_FORENSICS_INTERVAL seconds (default 60; 0 = unlimited); manual
// captures bypass the limit. Everything here compiles out with the stats
// layer: under -DARMGEMM_STATS=OFF the capture entry points are stubs
// that return -1 and no bundle is ever produced.
#pragma once

#include <cstdint>
#include <string>

#include "core/block_sizes.hpp"
#include "obs/flight.hpp"

namespace ag::obs {

/// Why a bundle was captured. Values index the per-reason counters.
enum class ForensicsReason : int { kDrift = 0, kSlowCall, kManual, kCount };
inline constexpr int kForensicsReasonCount =
    static_cast<int>(ForensicsReason::kCount);
const char* to_string(ForensicsReason r);

/// Trigger context the record path hands to the capture. Only the fields
/// matching `reason` are meaningful (drift: the EWMAs; slow_call: the
/// rolling p99 and factor).
struct ForensicsTrigger {
  ForensicsReason reason = ForensicsReason::kManual;
  CallRecord call;          // the offending (or most recent) call
  bool have_call = false;   // false: manual capture before any traffic
  double fast_ewma = 0, reference_ewma = 0, drift_threshold = 0;
  double p99_seconds = 0, slow_factor = 0;
  // Blocking the call ran under (prices the expected pack traffic; the
  // paper defaults stand in when the caller does not know).
  BlockSizes bs{};
};

struct ForensicsStats {
  std::uint64_t captures[kForensicsReasonCount] = {0, 0, 0};
  std::uint64_t written = 0;         // bundle files published
  std::uint64_t write_failures = 0;  // dir set but the write failed
  std::uint64_t suppressed = 0;      // automatic captures rate-limited away
  std::uint64_t slow_calls = 0;      // slow-call threshold hits (pre limit)
  double last_t = -1;                // epoch-relative time of the last capture
  std::string last_reason;           // "" until the first capture
  std::string last_path;             // "" when no file was written
  double last_wall_seconds = 0;      // the offending call's wall time
  std::string last_top_phase;        // largest attributed phase, "" unknown
  double last_top_share = 0;
  std::uint64_t total_captures() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : captures) t += c;
    return t;
  }
};

/// Automatic capture from the telemetry record path (drift onset /
/// slow-call). Applies the rate limit; returns 0 when a bundle was
/// captured, -1 when suppressed or stats are compiled out. Never throws,
/// never blocks on anything but the snapshot locks.
int forensics_capture(const ForensicsTrigger& trigger);

/// Manual capture: bypasses the rate limit, uses the most recent flight
/// record as the subject call (no-call bundles are still valid). Returns
/// 0 on capture, -1 under -DARMGEMM_STATS=OFF.
int telemetry_forensics_capture();

/// Counter snapshot (zeroed by forensics_reset).
ForensicsStats forensics_stats();

/// The last captured bundle's full JSON text ("" before the first
/// capture). Kept in memory so a capture with no ARMGEMM_FORENSICS_DIR
/// is still inspectable through the C API.
std::string forensics_last_bundle_json();

/// Zeroes the counters, the rate-limit clock and the last-bundle state
/// (telemetry_reset calls this).
void forensics_reset();

/// One JSON object for the telemetry exposition: the counters of `s` plus
/// a "last" sub-object summarizing the most recent capture (null before
/// any).
std::string forensics_summary_json(const ForensicsStats& s = forensics_stats());

/// Record one slow-call threshold hit (counter only; the capture is a
/// separate decision because the rate limiter may suppress it).
void forensics_note_slow_call();

}  // namespace ag::obs
