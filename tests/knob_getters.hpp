// Each knob row's typed getter, written as ag::knob_text() writes the row,
// so tests can check that a value set by name or through the environment
// reaches the code that reads it.
#pragma once

#include <charconv>
#include <string>

#include "common/knobs.hpp"
#include "obs/pmu.hpp"
#include "obs/telemetry.hpp"

namespace agtest {

inline std::string typed_getter_text(ag::Knob k) {
  using ag::Knob;
  const auto on = [](bool enabled) { return std::string(enabled ? "1" : "0"); };
  const auto decimal = [](double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  switch (k) {
    case Knob::kSpinUs: return std::to_string(ag::spin_wait_us());
    case Knob::kSmallMnk: return std::to_string(ag::small_gemm_mnk());
    case Knob::kPrea: return std::to_string(ag::prefetch_a_bytes());
    case Knob::kPreb: return std::to_string(ag::prefetch_b_bytes());
    case Knob::kTelemetry: return on(ag::obs::telemetry_enabled());
    case Knob::kMetricsPath: return ag::metrics_path();
    case Knob::kFlightDepth: return std::to_string(ag::flight_depth());
    case Knob::kDriftThreshold: return decimal(ag::drift_threshold());
    case Knob::kQueueDepth: return std::to_string(ag::queue_depth());
    case Knob::kPanelCacheMb: return std::to_string(ag::panel_cache_mb());
    case Knob::kTune:
      return ag::tune_mode() == ag::kTuneModeOff        ? "off"
             : ag::tune_mode() == ag::kTuneModeAnalytic ? "analytic"
                                                         : "on";
    case Knob::kTuneCache: return ag::tune_cache_path();
    case Knob::kTuneBudgetMs: return std::to_string(ag::tune_budget_ms());
    case Knob::kPhases: return on(ag::phase_attribution_enabled());
    case Knob::kSlowCallFactor: return decimal(ag::slow_call_factor());
    case Knob::kForensicsDir: return ag::forensics_dir();
    case Knob::kForensicsInterval: return decimal(ag::forensics_interval_s());
    case Knob::kCpuClasses: return ag::cpu_classes_spec();
    case Knob::kNumaNodes: return std::to_string(ag::numa_nodes_override());
    case Knob::kAffinity: return on(ag::affinity_enabled());
    case Knob::kPanelReplicateKb: return std::to_string(ag::panel_replicate_kb());
    case Knob::kWeightedSchedule: return on(ag::weighted_schedule_enabled());
    case Knob::kCrossNodeSteal: return std::to_string(ag::cross_node_steal_threshold());
    case Knob::kPmu: return on(!ag::obs::pmu_forced_fallback());
    case Knob::kCount: break;
  }
  return "?";
}

}  // namespace agtest
