// Process-wide runtime settings. Each ARMGEMM_* environment variable is
// one row of the knob table in knobs.cpp; README "Runtime knobs"
// documents the rows and tests/test_knobs.cpp holds the two together.
//
// The table is the only code that reads the environment. It loads once,
// during static initialization or at the first use before that, so other
// translation units may read knobs from their own static initializers.
// The environment, set_knob and armgemm_config_set share one parser.
// Environment text that is not a value of its row's type, or lies outside
// the row's range, warns once on stderr and leaves the default; a value
// set from code is clamped into the range instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace ag {

/// One row per environment variable, in README order.
enum class Knob : int {
  kSpinUs,
  kSmallMnk,
  kPrea,
  kPreb,
  kTelemetry,
  kMetricsPath,
  kFlightDepth,
  kDriftThreshold,
  kQueueDepth,
  kPanelCacheMb,
  kTune,
  kTuneCache,
  kTuneBudgetMs,
  kPhases,
  kSlowCallFactor,
  kForensicsDir,
  kForensicsInterval,
  kCpuClasses,
  kNumaNodes,
  kAffinity,
  kPanelReplicateKb,
  kWeightedSchedule,
  kCrossNodeSteal,
  kPmu,
  kCount
};

constexpr int kKnobCount = static_cast<int>(Knob::kCount);

enum class KnobType : std::uint8_t {
  kInt,     // a base-10 integer
  kDouble,  // a finite decimal
  kOnOff,   // 1/0, on/off, true/false or yes/no, in any case
  kText,    // a path or spec; "" means unset
};

struct KnobRow {
  const char* env;       // the environment variable, also the C API name
  KnobType type;
  const char* fallback;  // the default, written as knob_text() writes it
  std::int64_t min;      // the smallest value in range (numeric rows)
  bool open_min;         // decimal rows: the value must exceed min, and
                         // code values that do not store the default
};

const KnobRow& knob_row(Knob k);

/// The row whose environment variable is `env`, e.g. "ARMGEMM_PREA".
std::optional<Knob> find_knob(std::string_view env);

/// A value for set_knob: a number for the numeric and on/off rows (an
/// integer for every row but the decimal ones), or text. Text is parsed
/// as the environment is; for the path and spec rows it is the value.
using KnobValue = std::variant<std::int64_t, double, std::string>;

/// The one setter. Stores `v` process-wide, clamped into the row's range
/// (on/off rows store any nonzero integer as on). Returns false, changing
/// nothing, when `v` is not a value of the row's type. Only the
/// environment and callers of this setter write a knob; the library
/// never does.
bool set_knob(Knob k, const KnobValue& v);

/// The current value as text that set_knob and the environment accept:
/// integers in base 10, decimals in their shortest exact form, on/off
/// rows as 1 or 0.
std::string knob_text(Knob k);

// ---- typed getters: one relaxed load each ----------------------------------

/// Spin budget in microseconds before a waiter falls back to blocking.
std::int64_t spin_wait_us();

/// Small-path threshold T (the unpacked small path when m*n*k <= T^3).
std::int64_t small_gemm_mnk();

/// True when (m, n, k) should take the unpacked small path under the
/// current threshold. Overflow-safe for any int64 dimensions.
bool use_small_gemm(std::int64_t m, std::int64_t n, std::int64_t k);

/// Kernel prefetch distances (bytes) ahead of the packed-A and packed-B
/// streams; 0 turns that stream's prefetch off.
std::int64_t prefetch_a_bytes();
std::int64_t prefetch_b_bytes();

/// Admission limit of the persistent batch pool's work queue (tickets);
/// submissions beyond this many outstanding run inline on the caller.
std::int64_t queue_depth();

/// Packed-B panel cache capacity in MiB (0 = caching off).
std::int64_t panel_cache_mb();

/// Metrics exposition target path ("" = file dumps disabled).
std::string metrics_path();

/// Flight-recorder ring depth per telemetry lane (0 = recorder off).
std::int64_t flight_depth();

/// Drift-anomaly divergence threshold (relative, positive).
double drift_threshold();

/// Per-call phase attribution on/off (clock reads at phase boundaries;
/// only consulted while telemetry is active).
bool phase_attribution_enabled();

/// Slow-call forensics trigger: a call slower than factor * (its shape
/// class's p99 latency) captures a bundle. 0 disables the trigger.
double slow_call_factor();

/// Directory forensics bundles are written into ("" = no bundle files).
std::string forensics_dir();

/// Minimum seconds between automatic forensics captures (0 = no limit).
double forensics_interval_s();

/// Autotuner mode: off (paper/host defaults, bit-for-bit the pre-tuner
/// behavior) or on (tunable calls read the cache file's entry for their
/// key, or the analytic anchor).
constexpr int kTuneModeOff = 0;
constexpr int kTuneModeOn = 1;
int tune_mode();

/// Per-host tuning-cache path ("" = no cache file).
std::string tune_cache_path();

/// Wall-time budget of one key's offline search in `bench/abl_autotune
/// --native`, in milliseconds. No library call reads it.
std::int64_t tune_budget_ms();

/// Core-class override spec ("" = discover from sysfs). Changing it does
/// not rebuild the live topology snapshot; callers follow with
/// Topology::refresh().
std::string cpu_classes_spec();

/// NUMA node-count override (0 = discover from sysfs).
std::int64_t numa_nodes_override();

/// Worker-affinity pinning on/off.
bool affinity_enabled();

/// Per-node panel replication threshold in KiB (0 = replicate all).
std::int64_t panel_replicate_kb();

/// Heterogeneity-weighted ticket spans on/off (only takes effect when the
/// topology reports more than one core class).
bool weighted_schedule_enabled();

/// Empty same-node scan sweeps before a worker steals across nodes.
std::int64_t cross_node_steal_threshold();

namespace detail {

/// Environment parsers of the numeric rows. nullptr / "" returns
/// `fallback` silently; text that is not an integer (a finite decimal),
/// or lies below `min` (is negative, or zero without `allow_zero`),
/// returns `fallback` and prints one stderr warning naming the variable,
/// the rejected text, and the default used.
std::int64_t parse_env_int64(const char* name, const char* raw, std::int64_t fallback,
                             std::int64_t min = 0);
double parse_env_double(const char* name, const char* raw, double fallback,
                        bool allow_zero = false);

/// The on/off spellings: 1/0, on/off, true/false, yes/no in any case,
/// surrounding whitespace ignored. nullopt for anything else.
std::optional<bool> parse_on_off(std::string_view text);

/// Storage of the numeric and on/off rows, indexed by Knob (doubles as
/// their bit pattern).
extern std::atomic<std::uint64_t> g_knob_bits[kKnobCount];

/// Row k's stored bits, loading the environment first if it has not been.
std::uint64_t knob_bits(Knob k);

}  // namespace detail

}  // namespace ag
