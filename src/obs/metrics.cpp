#include "obs/metrics.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/json.hpp"
#include "obs/forensics.hpp"

namespace ag::obs {

namespace {

/// One exported value. Prometheus writes a bool as 1 or 0 and a code as
/// its number; JSON writes them as true or false and as the code's name.
struct Value {
  enum Kind : std::uint8_t { kUint, kInt, kReal, kBool, kCode, kText, kLatency, kEfficiency };
  Kind kind;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0;
  std::string_view text;  // kCode: the code's name; kText: the value
  const LatencyHistogram* latency = nullptr;
  const EfficiencyHistogram* efficiency = nullptr;

  Value(std::uint64_t v) : kind(kUint), u(v) {}
  Value(std::int64_t v) : kind(kInt), i(v) {}
  Value(int v) : kind(kInt), i(v) {}
  Value(double v) : kind(kReal), d(v) {}
  Value(bool v) : kind(kBool), u(v ? 1 : 0) {}
  Value(const LatencyHistogram& h) : kind(kLatency), latency(&h) {}
  Value(const EfficiencyHistogram& h) : kind(kEfficiency), efficiency(&h) {}
  static Value code(int v, std::string_view name) {
    Value out(v);
    out.kind = kCode;
    out.text = name;
    return out;
  }
  static Value str(std::string_view s) {
    Value out(0);
    out.kind = kText;
    out.text = s;
    return out;
  }
};

std::ostream& operator<<(std::ostream& os, const Value& v) {
  if (v.kind == Value::kReal) return os << v.d;
  if (v.kind == Value::kInt || v.kind == Value::kCode) return os << v.i;
  return os << v.u;
}

/// The parts of a snapshot a group of rows iterates.
enum class Scope : std::uint8_t {
  kProcess,
  kClass,
  kDrift,        // the classes again, as the drift object of each
  kPhasedClass,  // classes whose calls carried a phase timeline
  kClassPhase,
  kForensicsReason,
  kLane,         // telemetry lanes with barrier-wait or queue-wait data
  kScheduler,
  kSchedulerLane,
  kPanelCache,
  kCacheClass,
  kTune,
  kTuneSource,
  kTopology,
  kTopologyClass,
};
using enum Scope;
constexpr int kScopeCount = static_cast<int>(kTopologyClass) + 1;

/// Where a group's items sit in the JSON object of their parent's item.
enum class Nest : std::uint8_t {
  kNone,    // not in the document (the root; forensics reasons, whose
            // counters the "forensics" record carries)
  kArray,   // "<json>": [{rows}, ...]
  kObject,  // "<json>": {rows} of the one item, or null when there is none
  kKeyed,   // "<item name>": {rows}, one member per item
  kByRow,   // "<row key>": {"<item name>": value, ...}, one member per row
};
using enum Nest;

struct ScopeDef {
  const char* labels[3];  // Prometheus label keys of an item
  Scope parent;
  Nest nest;
  const char* json;       // member key of a kArray or kObject group
  bool sparse;            // a family with no samples is left out of the text
};

constexpr ScopeDef kScopes[] = {
    // label keys                  parent         nest     json           sparse
    {{},                           kProcess,      kNone,   nullptr,       false},
    {{"kind", "decade"},           kProcess,      kArray,  "classes",     false},
    {{"kind", "decade"},           kClass,        kObject, "drift",       false},
    {{"kind", "decade"},           kClass,        kObject, "phases",      true},
    {{"kind", "decade", "phase"},  kPhasedClass,  kKeyed,  nullptr,       true},
    {{"reason"},                   kProcess,      kNone,   nullptr,       false},
    {{"worker"},                   kProcess,      kArray,  "workers",     false},
    {{},                           kProcess,      kObject, "scheduler",   false},
    {{"worker"},                   kScheduler,    kArray,  "per_worker",  false},
    {{},                           kProcess,      kObject, "panel_cache", false},
    {{"class"},                    kPanelCache,   kArray,  "by_class",    true},
    {{},                           kProcess,      kObject, "tune",        false},
    {{"source"},                   kTune,         kByRow,  nullptr,       false},
    {{},                           kProcess,      kObject, "topology",    false},
    {{"class"},                    kTopology,     kArray,  "classes",     false},
};
static_assert(std::size(kScopes) == kScopeCount, "one kScopes row per Scope, in enum order");

const ScopeDef& def(Scope g) { return kScopes[static_cast<int>(g)]; }

/// One item a group iterates: the snapshot itself, or one class, lane,
/// ... of it. `name` keys it in JSON; `labels` are its Prometheus label
/// pairs, escaped.
struct Item {
  const TelemetrySnapshot* s = nullptr;
  const ClassSnapshot* cls = nullptr;
  const WorkerSnapshot* lane = nullptr;
  const SchedulerWorkerStats* worker = nullptr;
  const PanelCacheStats::ClassStats* cache = nullptr;
  const TopologyClassStats* topo = nullptr;
  int index = 0;  // the phase, tune source or forensics reason
  std::string name{};
  std::string labels{};

  const PhaseStat& phase() const { return cls->phases[static_cast<std::size_t>(index)]; }
};

enum class Type : std::uint8_t { kGauge, kCounter, kHistogram, kSummary };
using enum Type;
constexpr const char* kTypeNames[] = {"gauge", "counter", "histogram", "summary"};

/// A label a row adds to its group's, with its values in order; the
/// accessor receives the index of the value.
struct Extra {
  const char* key;
  const char* values[5];  // nullptr-terminated
};
constexpr Extra kQuantiles{"quantile", {"0.5", "0.95", "0.99"}};
constexpr Extra kQuantilesAndMax{"quantile", {"0.5", "0.95", "0.99", "1"}};
constexpr Extra kLocality{"locality", {"same_node", "cross_node"}};

using Get = Value (*)(const Item&, int);

struct Row {
  Scope scope;
  const char* json;    // JSON key; nullptr: text only
  Get get;
  const char* family = nullptr;  // Prometheus family; nullptr: JSON only
  Type type = kGauge;
  const char* help = nullptr;
  const Extra* extra = nullptr;
};

#define GET(expr) \
  []([[maybe_unused]] const Item& i, [[maybe_unused]] int q) -> Value { return expr; }

/// Every exported quantity, in the text exposition's order. A row without
/// a family is JSON only; a row without a JSON key is text only.
const Row kRows[] = {
    {kProcess, "enabled", GET(i.s->enabled),
     "armgemm_telemetry_enabled", kGauge, "1 when call recording is on."},
    {kProcess, "uptime_seconds", GET(i.s->uptime_seconds)},
    {kProcess, "peak_gflops_per_core", GET(i.s->peak_gflops_per_core),
     "armgemm_peak_gflops_per_core", kGauge, "Calibrated or injected per-core peak."},
    {kProcess, "total_calls", GET(i.s->total_calls)},

    {kClass, "kind", GET(Value::str(to_string(i.cls->shape.kind)))},
    {kClass, "decade", GET(i.cls->shape.decade)},
    {kClass, "calls", GET(i.cls->calls),
     "armgemm_calls_total", kCounter, "GEMM calls recorded per shape class."},
    {kClass, "latency", GET(i.cls->latency),
     "armgemm_call_latency_seconds", kHistogram, "Per-call wall time by shape class."},
    {kClass, nullptr, GET((std::array{i.cls->p50, i.cls->p95, i.cls->p99, i.cls->latency.max}[q])),
     "armgemm_call_latency_quantile_seconds", kGauge, "Merged latency quantiles.",
     &kQuantilesAndMax},
    {kClass, "efficiency", GET(i.cls->efficiency),
     "armgemm_efficiency", kHistogram, "Gflops fraction of threads x peak."},
    {kDrift, "ewma", GET(i.cls->drift_fast),
     "armgemm_drift_ewma", kGauge, "Fast EWMA of measured/expected efficiency."},
    {kDrift, "reference", GET(i.cls->drift_reference),
     "armgemm_drift_reference", kGauge, "Slow EWMA baseline the fast EWMA is compared to."},
    {kDrift, "samples", GET(i.cls->drift_samples)},
    {kDrift, "in_drift", GET(i.cls->in_drift),
     "armgemm_drift_state", kGauge, "1 while the class is flagged as drifting."},
    {kDrift, "anomalies", GET(i.cls->anomalies)},

    {kProcess, "anomaly_count", GET(i.s->anomaly_count),
     "armgemm_drift_anomalies_total", kCounter, "Drift onsets since the epoch."},
    {kProcess, "flight_recorded", GET(i.s->flight_recorded),
     "armgemm_flight_records_total", kCounter, "Calls the flight recorder has seen."},

    {kPhasedClass, "samples", GET(i.cls->phase_samples),
     "armgemm_phase_calls_total", kCounter, "Calls that carried a phase timeline."},
    {kClassPhase, "seconds", GET(i.phase().seconds),
     "armgemm_phase_seconds_total", kCounter, "Per-worker-attributed wall seconds by phase."},
    {kClassPhase, nullptr, GET((std::array{i.phase().p50, i.phase().p95, i.phase().p99}[q])),
     "armgemm_phase_share", kGauge, "Share of call wall time by phase (quantiles over calls).",
     &kQuantiles},
    {kClassPhase, "mean_share", GET(i.phase().mean_share),
     "armgemm_phase_share_mean", kGauge, "Mean share of call wall time by phase."},
    {kClassPhase, "p50", GET(i.phase().p50)},
    {kClassPhase, "p95", GET(i.phase().p95)},
    {kClassPhase, "p99", GET(i.phase().p99)},

    {kForensicsReason, nullptr, GET(i.s->forensics.captures[i.index]),
     "armgemm_forensics_captures_total", kCounter, "Forensics bundles captured by trigger."},
    {kProcess, nullptr, GET(i.s->forensics.written),
     "armgemm_forensics_written_total", kCounter, "Bundle files published to disk."},
    {kProcess, nullptr, GET(i.s->forensics.suppressed),
     "armgemm_forensics_suppressed_total", kCounter, "Automatic captures the rate limit dropped."},
    {kProcess, nullptr, GET(i.s->forensics.slow_calls),
     "armgemm_slow_calls_total", kCounter, "Calls beyond ARMGEMM_SLOW_CALL_FACTOR x class p99."},

    {kLane, "name", GET(Value::str(i.lane->name))},
    {kLane, "barrier_wait", GET(i.lane->barrier_wait),
     "armgemm_barrier_wait_seconds", kSummary, "Per-worker barrier wait per parallel call."},
    {kLane, "queue_wait", GET(i.lane->queue_wait),
     "armgemm_queue_wait_seconds", kSummary, "Batch-ticket submit-to-start wait per worker.",
     &kQuantiles},

    {kScheduler, "workers", GET(i.s->scheduler.workers),
     "armgemm_scheduler_workers", kGauge, "Persistent-pool worker threads."},
    {kScheduler, "queued", GET(i.s->scheduler.queued),
     "armgemm_scheduler_queue_depth", kGauge, "Tickets waiting in the queue now."},
    {kScheduler, "submissions", GET(i.s->scheduler.submissions),
     "armgemm_scheduler_submissions_total", kCounter, "Batch submissions executed."},
    {kScheduler, "tickets_enqueued", GET(i.s->scheduler.tickets_enqueued),
     "armgemm_scheduler_tickets_enqueued_total", kCounter, "Tickets admitted to the queue."},
    {kScheduler, "tickets_inline", GET(i.s->scheduler.tickets_inline),
     "armgemm_scheduler_tickets_inline_total", kCounter, "Tickets the admission limit ran inline."},
    {kScheduler, "utilization", GET(i.s->scheduler.utilization()),
     "armgemm_scheduler_utilization", kGauge, "Pool-wide busy fraction over worker lanes."},
    {kScheduler, "steal_imbalance", GET(i.s->scheduler.steal_imbalance()),
     "armgemm_scheduler_steal_imbalance", kGauge, "Max-over-mean tickets run per worker."},

    {kSchedulerLane, "name", GET(Value::str(i.worker->name))},
    {kSchedulerLane, "tickets_run", GET(i.worker->tickets_run),
     "armgemm_worker_tickets_total", kCounter, "Tickets run per scheduler lane."},
    {kSchedulerLane, "tickets_stolen", GET(i.worker->tickets_stolen),
     "armgemm_worker_tickets_stolen_total", kCounter, "Tickets popped from a foreign shard."},
    {kSchedulerLane, "steals_local", GET(i.worker->steals_local)},
    {kSchedulerLane, "steals_remote", GET(i.worker->steals_remote)},
    {kSchedulerLane, "tickets_inline", GET(i.worker->tickets_inline)},
    {kSchedulerLane, "steal_attempts", GET(i.worker->steal_attempts),
     "armgemm_worker_steal_attempts_total", kCounter, "Foreign-shard probes."},
    {kSchedulerLane, "steal_failures", GET(i.worker->steal_failures),
     "armgemm_worker_steal_failures_total", kCounter, "Foreign-shard probes that found nothing."},
    {kSchedulerLane, "blocks", GET(i.worker->blocks),
     "armgemm_worker_blocks_total", kCounter,
     "Spin-window expiries that fell back to an OS block."},
    {kSchedulerLane, "busy_seconds", GET(i.worker->busy_seconds),
     "armgemm_worker_busy_seconds_total", kCounter, "Time inside run_ticket per lane."},
    {kSchedulerLane, "idle_seconds", GET(i.worker->idle_seconds),
     "armgemm_worker_idle_seconds_total", kCounter, "Time scanning/spinning/blocked per lane."},
    {kSchedulerLane, "utilization", GET(i.worker->utilization()),
     "armgemm_worker_utilization", kGauge, "Busy fraction of the observed lifetime per lane."},

    {kScheduler, nullptr,
     GET(q == 0 ? i.s->scheduler.steals_local_total() : i.s->scheduler.steals_remote_total()),
     "armgemm_scheduler_steals_total", kCounter,
     "Stolen tickets by NUMA locality of the victim shard.", &kLocality},
    {kScheduler, "steals_local_total", GET(i.s->scheduler.steals_local_total())},
    {kScheduler, "steals_remote_total", GET(i.s->scheduler.steals_remote_total())},

    {kPanelCache, "hits", GET(i.s->panel_cache.hits),
     "armgemm_panel_cache_hits_total", kCounter, "Packed-B panels served from the cache."},
    {kPanelCache, "misses", GET(i.s->panel_cache.misses),
     "armgemm_panel_cache_misses_total", kCounter, "Requests that packed a fresh panel."},
    {kPanelCache, "inserts", GET(i.s->panel_cache.inserts)},
    {kPanelCache, "bypasses", GET(i.s->panel_cache.bypasses),
     "armgemm_panel_cache_bypasses_total", kCounter, "Requests the cache declined."},
    {kPanelCache, "evictions", GET(i.s->panel_cache.evictions),
     "armgemm_panel_cache_evictions_total", kCounter, "Panels dropped to make room."},
    {kPanelCache, "wait_stalls", GET(i.s->panel_cache.wait_stalls),
     "armgemm_panel_cache_wait_stalls_total", kCounter, "Hits that waited on a mid-pack panel."},
    {kPanelCache, "wait_seconds", GET(i.s->panel_cache.wait_seconds),
     "armgemm_panel_cache_wait_seconds_total", kCounter, "Time spent in those waits."},
    {kPanelCache, "epochs", GET(i.s->panel_cache.epochs),
     "armgemm_panel_cache_epochs_total", kCounter, "Sharing epochs begun (batch calls)."},
    {kPanelCache, "resident_bytes", GET(i.s->panel_cache.resident_bytes),
     "armgemm_panel_cache_resident_bytes", kGauge, "Bytes of panels resident now."},
    {kPanelCache, "peak_bytes", GET(i.s->panel_cache.peak_bytes),
     "armgemm_panel_cache_peak_bytes", kGauge, "High-water resident bytes."},
    {kPanelCache, "resident_panels", GET(i.s->panel_cache.resident_panels),
     "armgemm_panel_cache_resident_panels", kGauge, "Panels resident now."},
    {kPanelCache, "node_replicas", GET(i.s->panel_cache.node_replicas),
     "armgemm_panel_cache_node_replicas_total", kCounter, "Node-keyed NUMA replica packs."},
    {kPanelCache, "hit_rate", GET(i.s->panel_cache.hit_rate()),
     "armgemm_panel_cache_hit_rate", kGauge, "hits / (hits + misses) since start."},

    {kCacheClass, "class", GET(Value::str(i.name))},
    {kCacheClass, "hits", GET(i.cache->hits),
     "armgemm_panel_cache_class_hits_total", kCounter, "Cache hits by requesting shape class."},
    {kCacheClass, "misses", GET(i.cache->misses),
     "armgemm_panel_cache_class_misses_total", kCounter, "Cache misses by requesting shape class."},

    {kTune, "mode", GET(i.s->tune.mode),
     "armgemm_tune_mode", kGauge, "Autotuner mode (0 off, 1 analytic, 2 on)."},
    {kTune, "cache_path_set", GET(i.s->tune.cache_path_set)},
    // How many (precision, shape-class) keys each source resolves now: a
    // warm second process shows "cached" keys with no probes run.
    {kTuneSource, "resolutions", GET(i.s->tune.resolutions[i.index]),
     "armgemm_tune_source", kGauge, "Resolved tuning keys by configuration source."},
    {kTuneSource, "calls", GET(i.s->tune.calls[i.index]),
     "armgemm_tune_calls_total", kCounter, "GEMM calls by the source of their configuration."},
    {kTune, "probes_run", GET(i.s->tune.probes_run),
     "armgemm_tune_probes_total", kCounter, "Measured probes run this process."},
    {kTune, "probe_ms_spent", GET(i.s->tune.probe_ms_spent),
     "armgemm_tune_probe_ms", kGauge, "Wall milliseconds spent in probes."},
    {kTune, "budget_ms", GET(i.s->tune.budget_ms),
     "armgemm_tune_budget_ms", kGauge, "Probe budget (ARMGEMM_TUNE_BUDGET_MS)."},
    {kTune, "cache_entries_loaded", GET(i.s->tune.cache_entries_loaded),
     "armgemm_tune_cache_entries_loaded", kGauge, "Entries accepted from the tuning cache."},
    {kTune, "cache_rejected", GET(i.s->tune.cache_rejected),
     "armgemm_tune_cache_rejected_total", kCounter, "Cache files or entries refused."},
    {kTune, "invalidations", GET(i.s->tune.invalidations),
     "armgemm_tune_invalidations_total", kCounter, "Drift-triggered entry invalidations."},
    {kTune, "saves", GET(i.s->tune.saves),
     "armgemm_tune_saves_total", kCounter, "Successful cache writes."},
    {kTune, "save_failures", GET(i.s->tune.save_failures),
     "armgemm_tune_save_failures_total", kCounter, "Cache writes that failed."},

    {kTopology, "cpus", GET(i.s->topology.cpus),
     "armgemm_topology_cpus", kGauge, "Logical cpus in the topology snapshot."},
    {kTopology, "nodes", GET(i.s->topology.nodes),
     "armgemm_topology_nodes", kGauge, "NUMA nodes in the topology snapshot."},
    {kTopology, nullptr, GET(i.s->topology.classes.size()),
     "armgemm_topology_classes", kGauge, "Core classes (1 = symmetric host)."},
    {kTopology, "source",
     GET(Value::code(i.s->topology.source, topology_source_name(i.s->topology.source))),
     "armgemm_topology_source", kGauge, "Discovery source (0 flat, 1 sysfs, 2 env)."},
    {kTopology, "asymmetric", GET(i.s->topology.asymmetric())},
    {kTopology, "weights_refined", GET(i.s->topology.weights_refined),
     "armgemm_topology_weights_refined", kGauge, "1 once online estimates replaced the seeds."},

    {kTopologyClass, "class", GET(i.topo->cls)},
    {kTopologyClass, "cpus", GET(i.topo->cpus),
     "armgemm_topology_class_cpus", kGauge, "Cpus per core class."},
    {kTopologyClass, "weight", GET(i.topo->weight),
     "armgemm_topology_class_weight", kGauge, "Relative class throughput (fastest = 1)."},
    {kTopologyClass, "weight_seed", GET(i.topo->weight_seed),
     "armgemm_topology_class_weight_seed", kGauge, "Discovery-time weight seed."},
    {kTopologyClass, "tickets", GET(i.topo->tickets),
     "armgemm_topology_class_tickets_total", kCounter, "Pool tickets run per class."},
    {kTopologyClass, "busy_seconds", GET(i.topo->busy_seconds),
     "armgemm_topology_class_busy_seconds_total", kCounter, "Ticket time per class."},
};

#undef GET

// ---- items ------------------------------------------------------------------

bool section_available(const TelemetrySnapshot& s, Scope g) {
  switch (g) {
    case kScheduler: case kSchedulerLane: return s.scheduler_available;
    case kPanelCache: case kCacheClass: return s.panel_cache_available;
    case kTune: case kTuneSource: return s.tune_available;
    case kTopology: case kTopologyClass: return s.topology_available;
    default: return true;
  }
}

/// Appends key="value" to a label set. Text format 0.0.4 escapes a
/// backslash, a double quote and a newline inside a label value; this is
/// the only place label text is written.
void append_label(std::string& labels, std::string_view key, std::string_view value) {
  if (!labels.empty()) labels += ',';
  labels.append(key).append("=\"");
  for (const char c : value) {
    if (c == '\n') {
      labels += "\\n";
      continue;
    }
    if (c == '\\' || c == '"') labels += '\\';
    labels += c;
  }
  labels += '"';
}

std::string with_label(std::string labels, std::string_view key, std::string_view value) {
  append_label(labels, key, value);
  return labels;
}

/// The items group `g` iterates; none while its runtime section has not
/// registered.
std::vector<Item> items_of(const TelemetrySnapshot& s, Scope g) {
  std::vector<Item> out;
  if (!section_available(s, g)) return out;
  // An item takes its label values in the order of the group's keys; the
  // last one names it.
  const auto add = [&](Item it, std::initializer_list<std::string> values) {
    it.s = &s;
    const char* const* key = def(g).labels;
    for (const std::string& v : values) {
      append_label(it.labels, *key++, v);
      it.name = v;
    }
    out.push_back(std::move(it));
  };
  switch (g) {
    case kProcess: case kScheduler: case kPanelCache: case kTune: case kTopology:
      add({}, {});
      break;
    case kClass: case kDrift: case kPhasedClass: case kClassPhase:
      for (const ClassSnapshot& c : s.classes) {
        if ((g == kPhasedClass || g == kClassPhase) && c.phase_samples == 0) continue;
        const std::string kind = to_string(c.shape.kind);
        const std::string decade = std::to_string(c.shape.decade);
        if (g != kClassPhase) {
          add({.cls = &c}, {kind, decade});
          continue;
        }
        for (int p = 0; p < kPhaseCount; ++p)
          add({.cls = &c, .index = p}, {kind, decade, phase_name(p)});
      }
      break;
    case kForensicsReason:
      for (int r = 0; r < kForensicsReasonCount; ++r)
        add({.index = r}, {to_string(static_cast<ForensicsReason>(r))});
      break;
    case kLane:
      for (const WorkerSnapshot& w : s.workers) add({.lane = &w}, {w.name});
      break;
    case kSchedulerLane:
      for (const SchedulerWorkerStats& w : s.scheduler.per_worker) add({.worker = &w}, {w.name});
      break;
    case kCacheClass:
      for (const PanelCacheStats::ClassStats& c : s.panel_cache.by_class)
        add({.cache = &c}, {c.shape_class < 0 ? std::string("untagged")
                                              : ShapeClass::from_index(c.shape_class).label()});
      break;
    case kTuneSource:
      for (int src = 0; src < kTuneSourceCount; ++src) add({.index = src}, {tune_source_name(src)});
      break;
    case kTopologyClass:
      for (const TopologyClassStats& c : s.topology.classes)
        add({.topo = &c}, {std::to_string(c.cls)});
      break;
  }
  return out;
}

template <int N>
double bucket_lower(int b) {
  if constexpr (N == kLatencyBuckets)
    return static_cast<double>(latency_bucket_lower_ns(b)) * 1e-9;
  else
    return efficiency_bucket_lower(b);
}

// ---- Prometheus text ----------------------------------------------------------

template <typename T>
void sample(std::ostream& os, const Row& r, const char* suffix, const std::string& labels,
            const T& value) {
  os << r.family << suffix;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ' << value << '\n';
}

template <int N>
void histogram_text(std::ostream& os, const Row& r, const Item& it, const Histogram<N>& h) {
  if (r.type == kHistogram) {
    std::uint64_t cum = 0;
    for (int b = 0; b < N - 1; ++b) {  // the +Inf bucket covers the overflow bucket
      if (!h.counts[b]) continue;
      cum += h.counts[b];
      char le[32];
      std::snprintf(le, sizeof le, "%.9g", bucket_lower<N>(b + 1));
      sample(os, r, "_bucket", with_label(it.labels, "le", le), cum);
    }
    sample(os, r, "_bucket", with_label(it.labels, "le", "+Inf"), h.total);
  } else if constexpr (N == kLatencyBuckets) {
    // A summary's quantiles mean nothing without samples, so a summary
    // that has quantiles leaves out the items that recorded none.
    if (r.extra && h.total == 0) return;
    for (int q = 0; r.extra && r.extra->values[q]; ++q)
      sample(os, r, "", with_label(it.labels, r.extra->key, r.extra->values[q]),
             latency_quantile(h, std::atof(r.extra->values[q])));
  }
  sample(os, r, "_sum", it.labels, h.sum);
  sample(os, r, "_count", it.labels, h.total);
}

std::string render_text(const TelemetrySnapshot& s) {
  std::vector<Item> items[kScopeCount];
  for (int g = 0; g < kScopeCount; ++g) items[g] = items_of(s, static_cast<Scope>(g));
  std::ostringstream os;
  os.precision(9);
  for (const Row& r : kRows) {
    if (!r.family) continue;
    const std::vector<Item>& its = items[static_cast<int>(r.scope)];
    if (its.empty() && (def(r.scope).sparse || !section_available(s, r.scope))) continue;
    os << "# HELP " << r.family << ' ' << r.help << "\n# TYPE " << r.family << ' '
       << kTypeNames[static_cast<int>(r.type)] << '\n';
    for (const Item& it : its) {
      const Value v = r.get(it, 0);
      if (v.kind == Value::kLatency) {
        histogram_text(os, r, it, *v.latency);
      } else if (v.kind == Value::kEfficiency) {
        histogram_text(os, r, it, *v.efficiency);
      } else if (!r.extra) {
        sample(os, r, "", it.labels, v);
      } else {
        for (int q = 0; r.extra->values[q]; ++q)
          sample(os, r, "", with_label(it.labels, r.extra->key, r.extra->values[q]), r.get(it, q));
      }
    }
  }
  return os.str();
}

// ---- JSON -------------------------------------------------------------------

template <int N>
void histogram_json(JsonWriter& w, const Histogram<N>& h) {
  w.begin_object().key("count").value(h.total).key("mean").value(h.mean()).key("max").value(h.max);
  if constexpr (N == kLatencyBuckets)
    w.key("p50").value(latency_quantile(h, 0.50)).key("p95").value(latency_quantile(h, 0.95))
        .key("p99").value(latency_quantile(h, 0.99));
  w.key("buckets").begin_array();
  for (int b = 0; b < N; ++b)
    if (h.counts[b]) w.begin_array().value(bucket_lower<N>(b)).value(h.counts[b]).end_array();
  w.end_array().end_object();
}

void json_value(JsonWriter& w, const Value& v) {
  switch (v.kind) {
    case Value::kUint: w.value(v.u); break;
    case Value::kInt: w.value(v.i); break;
    case Value::kReal: w.value(v.d); break;
    case Value::kBool: w.value(v.u != 0); break;
    case Value::kCode: case Value::kText: w.value(std::string(v.text)); break;
    case Value::kLatency: histogram_json(w, *v.latency); break;
    case Value::kEfficiency: histogram_json(w, *v.efficiency); break;
  }
}

void json_members(JsonWriter& w, const TelemetrySnapshot& s, Scope g, const Item& item);

/// Writes group `child` into the object of `parent`, its parent group's item.
void json_child(JsonWriter& w, const TelemetrySnapshot& s, Scope child, const Item& parent) {
  const ScopeDef& d = def(child);
  std::vector<Item> kids = items_of(s, child);
  std::erase_if(kids, [&](const Item& k) { return parent.cls && k.cls != parent.cls; });
  const auto object = [&](const Item& k) {
    w.begin_object();
    json_members(w, s, child, k);
    w.end_object();
  };
  switch (d.nest) {
    case kNone:
      break;
    case kArray:
      w.key(d.json).begin_array();
      for (const Item& k : kids) object(k);
      w.end_array();
      break;
    case kObject:
      w.key(d.json);
      if (kids.empty())
        w.null();
      else
        object(kids.front());
      break;
    case kKeyed:
      for (const Item& k : kids) {
        w.key(k.name);
        object(k);
      }
      break;
    case kByRow:
      for (const Row& r : kRows) {
        if (r.scope != child || !r.json) continue;
        w.key(r.json).begin_object();
        for (const Item& k : kids) {
          w.key(k.name);
          json_value(w, r.get(k, 0));
        }
        w.end_object();
      }
      break;
  }
}

/// The members of `item`'s object: its group's rows, then its child groups.
void json_members(JsonWriter& w, const TelemetrySnapshot& s, Scope g, const Item& item) {
  for (const Row& r : kRows) {
    if (r.scope != g || !r.json) continue;
    w.key(r.json);
    json_value(w, r.get(item, 0));
  }
  for (int c = 0; c < kScopeCount; ++c)
    if (c != static_cast<int>(g) && kScopes[c].parent == g)
      json_child(w, s, static_cast<Scope>(c), item);
}

std::string render_json(const TelemetrySnapshot& s, bool runtime_only) {
  const Item root = items_of(s, kProcess).front();
  JsonWriter w(9);
  w.begin_object();
  if (runtime_only) {
    // The runtime sections are the root's object groups.
    for (int c = 0; c < kScopeCount; ++c)
      if (c != static_cast<int>(kProcess) && kScopes[c].parent == kProcess &&
          kScopes[c].nest == kObject)
        json_child(w, s, static_cast<Scope>(c), root);
    w.end_object();
    const std::string& doc = w.str();
    return doc.substr(1, doc.size() - 2);
  }
  w.key("schema").value("armgemm-telemetry/1");
  json_members(w, s, kProcess, root);
  w.key("anomalies").begin_array();
  for (const AnomalyEvent& a : s.anomalies)
    w.begin_object().key("t").value(a.t)
        .key("class").value(ShapeClass::from_index(a.shape_class).label())
        .key("recovered").value(a.recovered).key("ewma").value(a.fast_ewma)
        .key("reference").value(a.reference_ewma).key("threshold").value(a.threshold)
        .key("trigger").raw(a.trigger.to_json()).end_object();
  w.end_array();
  w.key("forensics").raw(forensics_summary_json(s.forensics));
  w.key("flight").raw(flight_to_json(s.flight));
  w.end_object();
  return w.str();
}

}  // namespace

std::string render_metrics(const TelemetrySnapshot& s, MetricsFormat format) {
  if (format == MetricsFormat::kPrometheus) return render_text(s);
  return render_json(s, format == MetricsFormat::kJsonRuntime);
}

std::vector<MetricFamily> metric_families() {
  std::vector<MetricFamily> out;
  for (const Row& r : kRows) {
    if (!r.family) continue;
    MetricFamily f{r.family, kTypeNames[static_cast<int>(r.type)], r.help, {}};
    for (const char* key : def(r.scope).labels)
      if (key) f.labels.emplace_back(key);
    if (r.extra) f.labels.emplace_back(r.extra->key);
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace ag::obs
