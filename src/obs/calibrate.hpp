// Empirical calibration of the Section III model parameters.
//
// The paper's Eq. (1)-(6) performance bound is parameterized by mu
// (seconds per flop at peak), pi (seconds per word moved) and the overlap
// function psi(gamma). PR 1 assumed these from the machine description;
// this module derives them from the silicon the library actually runs on,
// in the micro-benchmarked spirit of the paper's Table IV:
//
//   mu  — a register-resident FMA throughput probe: several independent
//         accumulator chains, unrolled, so the FP pipes are the limit.
//         A second, fully dependent chain measures the FMA result latency
//         (the paper's 4-to-6-cycle accumulation hazard behind register
//         rotation, Section V-B).
//   pi  — a pointer-chase over a footprint far beyond the last-level
//         cache: each load depends on the previous one, so the measured
//         seconds/load is the un-overlapped per-word memory cost.
//   psi — a combined probe streams two out-of-cache arrays through FMAs
//         (gamma = 1) and compares against the pure-compute and
//         pure-memory times; the unhidden fraction of memory time fits
//         the model's psi(gamma) = 1/(1 + c*gamma) at the probe's gamma.
//
// All probes report seconds on the probe clock (the task clock when the
// kernel grants one, wall time otherwise); when hardware counters are
// available a PmuGroup additionally attributes cycles to the probes
// (cycles_per_fma), cross-checking the timestamp path.
//
// The runtime readers of the model (telemetry's expected efficiency and
// the tuner's host fingerprint) share one lean calibration per process,
// host_calibration(): mu, pi and psi only, on one reused footprint.
#pragma once

#include <string>

#include "model/perf_model.hpp"

namespace ag::obs {

struct CalibrationOptions {
  /// Budget per micro-probe, in probe-clock seconds: each probe ramps its
  /// repetitions until one timed window reaches the budget. A full
  /// calibrate() at the defaults takes about 0.8 s on a 4-vCPU x86-64
  /// host; tests shrink the budget further.
  double seconds_per_probe = 0.05;
  /// Pointer-chase / streaming footprint; must exceed the last-level
  /// cache for pi to measure memory, not cache.
  std::int64_t memory_bytes = 64ll << 20;
  /// Independent accumulator chains in the throughput probe; rounded to
  /// 8/16/32/64 (the instantiated probe bodies). 32 doubles = eight
  /// 256-bit vectors, covering a 4-deep FMA latency x 2 pipes after
  /// vectorization.
  int fma_chains = 32;
};

struct CalibrationResult {
  double mu = 0;              // s/flop, independent chains (throughput)
  double fma_latency_s = 0;   // s/flop, one dependent chain (latency)
  double pi = 0;              // s/word, dependent out-of-cache loads
  double psi_c = 1.0;         // c in psi(gamma) = 1/(1 + c*gamma)
  double measured_psi = 1.0;  // unhidden memory fraction at gamma_probe
  double gamma_probe = 1.0;   // flops/word of the overlap probe
  double peak_gflops = 0;     // 1e-9 / mu
  bool used_hardware_counters = false;
  double cycles_per_fma = 0;  // PMU cycles per FMA in the throughput probe
                              // (synthetic "cycles" are ns when no PMU)

  /// The calibrated cost parameters for Eq. (6).
  model::CostParams cost_params(double kappa = 0.125) const {
    model::CostParams p;
    p.mu = mu;
    p.pi = pi;
    p.kappa = kappa;
    return p;
  }

  std::string to_json() const;
};

/// Runs every probe and fills every field.
CalibrationResult calibrate(const CalibrationOptions& opts = {});

/// The probes the runtime model needs: mu, then pi and psi on one
/// footprint allocation (peak_gflops and psi_c derived). Skips the FMA
/// latency probe and the cycle attribution, so fma_latency_s and
/// cycles_per_fma stay 0 and used_hardware_counters false.
CalibrationResult calibrate_model(const CalibrationOptions& opts);

/// The process's one host calibration: calibrate_model at a 1.5 ms probe
/// budget over 16 MB (tens of ms in all), run by its first caller.
/// Telemetry's expected-efficiency model and the tuner's host fingerprint
/// both read it, so a process measures the host once. Once published the
/// result never changes. While another thread of this process runs the probes, a
/// caller with `wait` waits for them and one without returns nullptr at
/// once. A claim made in another process (a child forked while its parent
/// calibrated) is taken over, since the thread running it does not exist
/// in the child.
const CalibrationResult* host_calibration(bool wait);

/// How many times this process has started host_calibration's probes: 0
/// before its first caller, 1 after (2 in a child that took over its
/// parent's claim).
int host_calibration_runs();

/// Individual probes (each returns the quantity documented above).
double measure_fma_throughput(const CalibrationOptions& opts);   // s/flop
double measure_fma_latency(const CalibrationOptions& opts);      // s/flop
double measure_memory_word_cost(const CalibrationOptions& opts); // s/word
/// Unhidden memory fraction psi at the probe's gamma (written to
/// *gamma_probe when non-null); in [0, 1].
double measure_overlap_psi(const CalibrationOptions& opts, double* gamma_probe);

}  // namespace ag::obs
