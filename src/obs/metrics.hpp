// The metrics table: every quantity the serving telemetry exports, one
// row each in metrics.cpp. A row names its Prometheus family (name, type,
// help, label keys), its key in the JSON document, and the accessor that
// reads it from a TelemetrySnapshot. Rows are grouped by the part of the
// snapshot they iterate (the process, a shape class, a class and phase, a
// telemetry lane, the scheduler and its lanes, the panel cache and its
// classes, the tuner and its sources, the topology and its classes, a
// forensics reason), and two walkers render the Prometheus text and the
// JSON objects from the rows. README's metrics reference is held to the
// table by tests/test_obs_metrics.cpp.
//
// The anomaly and flight lists and the forensics summary are records, not
// metric families; the JSON walker embeds them through their own writers
// (obs/flight, obs/forensics).
#pragma once

#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace ag::obs {

enum class MetricsFormat {
  kPrometheus,   // text format 0.0.4
  kJson,         // the {"schema":"armgemm-telemetry/1"} document
  kJsonRuntime,  // that document's "scheduler", "panel_cache", "tune" and
                 // "topology" members, without braces, for the forensics
                 // bundle to splice into its own object
};

/// Renders `s` from the metrics table.
std::string render_metrics(const TelemetrySnapshot& s, MetricsFormat format);

/// One Prometheus family of the table.
struct MetricFamily {
  std::string name;
  std::string type;                 // gauge | counter | histogram | summary
  std::string help;
  std::vector<std::string> labels;  // label keys, `le` of histograms aside
};

/// The Prometheus families in exposition order.
std::vector<MetricFamily> metric_families();

}  // namespace ag::obs
