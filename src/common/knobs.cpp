#include "common/knobs.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/math_util.hpp"

namespace ag {

namespace {

using enum KnobType;

// The knob table. Defaults are text, so the defaults, the environment and
// set_knob all go through one parser.
constexpr KnobRow kRows[kKnobCount] = {
    // env                           type       default  min  open
    {"ARMGEMM_SPIN_US",              kInt,      "50",     0, false},
    // The unpacked small path stores the untuned blocked path's bits, so
    // this threshold moves only speed and nothing tunes it. Above 50^3
    // the small path runs on the context's ranks. 224 is the median of
    // three sweeps' crossover against the 4-thread blocked path, on calls
    // of volume n^3 in mixed shapes and transposes with operands out of
    // L2, on a 4-vCPU AVX2 host: `bench/fig14_thread_scaling
    // --native=64,96,...,320` (EXPERIMENTS.md).
    {"ARMGEMM_SMALL_MNK",            kInt,      "224",    0, false},
    // Paper Table III / Figure 8: the tuned prfm distances of the 8x6
    // kernel.
    {"ARMGEMM_PREA",                 kInt,      "1024",   0, false},
    {"ARMGEMM_PREB",                 kInt,      "24576",  0, false},
    {"ARMGEMM_TELEMETRY",            kOnOff,    "0",      0, false},
    {"ARMGEMM_METRICS_PATH",         kText,     "",       0, false},
    {"ARMGEMM_FLIGHT_DEPTH",         kInt,      "256",    0, false},
    {"ARMGEMM_DRIFT_THRESHOLD",      kDouble,   "0.25",   0, true},
    // The queue depth bounds memory held by outstanding tickets, not
    // parallelism: a batch of small entries enqueues one ticket per
    // entry, so 1024 covers the serving sweet spot while still shedding
    // load (inline execution) under pathological fan-in.
    {"ARMGEMM_QUEUE_DEPTH",          kInt,      "1024",   1, false},
    // Packed-B panels of the default blocking are kc*nc*8 bytes (a few
    // MiB); 64 MiB holds the panels of a few dozen distinct B operands.
    {"ARMGEMM_PANEL_CACHE_MB",       kInt,      "64",     0, false},
    {"ARMGEMM_TUNE",                 kOnOff,    "1",      0, false},
    {"ARMGEMM_TUNE_CACHE",           kText,     "",       0, false},
    // Bounds one key's offline search (bench/abl_autotune --native),
    // which no library call pays: about seven interleaved rounds of the
    // twelve f64 candidates at 512^3 on a 4-vCPU AVX2 host.
    {"ARMGEMM_TUNE_BUDGET_MS",       kInt,      "2000",   0, false},
    // The phase clock reads are a few ns per call and only taken while
    // telemetry is already recording.
    {"ARMGEMM_PHASES",               kOnOff,    "1",      0, false},
    // 8x the class p99 is far outside scheduler jitter but still catches
    // a call that hit a cold cache, a stolen core, or a pathological
    // stall.
    {"ARMGEMM_SLOW_CALL_FACTOR",     kDouble,   "8",      0, false},
    {"ARMGEMM_FORENSICS_DIR",        kText,     "",       0, false},
    // One bundle a minute bounds forensics I/O even when a whole class
    // goes bad at once.
    {"ARMGEMM_FORENSICS_INTERVAL",   kDouble,   "60",     0, false},
    {"ARMGEMM_CPU_CLASSES",          kText,     "",       0, false},
    {"ARMGEMM_NUMA_NODES",           kInt,      "0",      0, false},
    // A library must not fight the host's scheduler unless the operator
    // opted in.
    {"ARMGEMM_AFFINITY",             kOnOff,    "0",      0, false},
    // A replica costs one extra pack and its resident bytes per node;
    // panels under ~1 MiB travel the interconnect cheaply enough that the
    // copy is not worth the cache capacity.
    {"ARMGEMM_PANEL_REPLICATE_KB",   kInt,      "1024",   0, false},
    {"ARMGEMM_WEIGHTED_SCHEDULE",    kOnOff,    "1",      0, false},
    // Two full same-node sweeps tolerate transient emptiness before a
    // worker pays the interconnect for a remote ticket.
    {"ARMGEMM_CROSS_NODE_STEAL",     kInt,      "2",      0, false},
    {"ARMGEMM_PMU",                  kOnOff,    "1",      0, false},
};

static_assert(std::ranges::all_of(kRows, [](const KnobRow& r) {
  return r.type == kDouble || !r.open_min;
}));

constexpr std::size_t index(Knob k) { return static_cast<std::size_t>(k); }

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// One stderr line per rejected variable. The table parses each variable
// once per process, so the warning is naturally one-time; the message
// names the default actually used so an operator can fix the deployment
// without reading source.
void warn_rejected(const char* name, const char* raw, const char* why,
                   const char* fallback_text) {
  std::fprintf(stderr, "armgemm: ignoring %s='%s' (%s); using default %s\n",
               name, raw, why, fallback_text);
}

// strtoll/strtod leave `end` at the first unparsed character; trailing
// whitespace is tolerated (shell quoting artifacts), anything else is
// garbage ("12abc", "1e--3").
bool only_trailing_space(const char* end) {
  for (; *end != '\0'; ++end) {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
  }
  return true;
}

// The number parsers return why `text` is not a number of their type, or
// nullptr once `out` holds it.
const char* parse_int(const char* text, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || !only_trailing_space(end)) return "not an integer";
  if (errno == ERANGE) return "out of range";
  out = v;
  return nullptr;
}

const char* parse_double(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || !only_trailing_space(end)) return "not a number";
  if (errno == ERANGE || !std::isfinite(v)) return "out of range";
  out = v;
  return nullptr;
}

std::string_view trim(std::string_view s) {
  const auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

bool iequals(std::string_view a, std::string_view b) {
  return std::ranges::equal(a, b, [](char x, char y) {
    return std::tolower(static_cast<unsigned char>(x)) ==
           std::tolower(static_cast<unsigned char>(y));
  });
}

// `text` as a number of a numeric or on/off row's type.
std::optional<KnobValue> parse_number(KnobType type, const std::string& text) {
  if (type == kInt) {
    std::int64_t v = 0;
    if (parse_int(text.c_str(), v) != nullptr) return std::nullopt;
    return v;
  }
  if (type == kDouble) {
    double v = 0;
    if (parse_double(text.c_str(), v) != nullptr) return std::nullopt;
    return v;
  }
  if (const std::optional<bool> on = detail::parse_on_off(text))
    return std::int64_t{*on ? 1 : 0};
  return std::nullopt;
}

std::uint64_t default_bits(const KnobRow& r);

// The bits a numeric or on/off row stores for `v` set from code: clamped
// into the row's range. nullopt when `v` is not a value of the row's type.
std::optional<std::uint64_t> code_bits(const KnobRow& r, const KnobValue& v) {
  if (const auto* text = std::get_if<std::string>(&v)) {
    const std::optional<KnobValue> number = parse_number(r.type, *text);
    return number ? code_bits(r, *number) : std::nullopt;
  }
  if (r.type == kDouble) {
    const double d = std::holds_alternative<double>(v)
                         ? std::get<double>(v)
                         : static_cast<double>(std::get<std::int64_t>(v));
    const double min = static_cast<double>(r.min);
    if (r.open_min) return d > min ? double_bits(d) : default_bits(r);
    return double_bits(d >= min ? d : min);  // NaN stores min
  }
  const auto* i = std::get_if<std::int64_t>(&v);
  if (i == nullptr) return std::nullopt;
  if (r.type == kOnOff) return *i != 0 ? 1 : 0;
  return static_cast<std::uint64_t>(std::max(*i, r.min));
}

std::uint64_t default_bits(const KnobRow& r) { return *code_bits(r, std::string(r.fallback)); }

// Bits for the environment text `raw` of a numeric or on/off row.
std::uint64_t env_bits(const KnobRow& r, const char* raw) {
  const std::uint64_t fallback = default_bits(r);
  if (r.type == kInt)
    return static_cast<std::uint64_t>(
        detail::parse_env_int64(r.env, raw, static_cast<std::int64_t>(fallback), r.min));
  if (r.type == kDouble)
    return double_bits(detail::parse_env_double(r.env, raw, std::bit_cast<double>(fallback),
                                                /*allow_zero=*/!r.open_min));
  if (raw == nullptr || raw[0] == '\0') return fallback;
  if (const std::optional<bool> on = detail::parse_on_off(raw)) return *on ? 1 : 0;
  warn_rejected(r.env, raw, "not on/off", r.fallback);
  return fallback;
}

// The path and spec rows. Reads are rare (dump, capture, cache and
// topology build time), so a mutex is simpler than a lock-free string
// scheme.
struct TextStore {
  std::mutex mutex;
  std::string value[kKnobCount];  // text rows only
};

TextStore& text_store() {
  static TextStore* store = new TextStore;  // leaky: threads running at exit read it
  return *store;
}

bool load_environment() {
  TextStore& texts = text_store();
  std::lock_guard lock(texts.mutex);
  bool telemetry_set = false;
  for (int i = 0; i < kKnobCount; ++i) {
    const KnobRow& r = kRows[i];
    const char* raw = std::getenv(r.env);
    const bool present = raw != nullptr && raw[0] != '\0';
    if (r.type == kText)
      texts.value[i] = present ? raw : "";
    else
      detail::g_knob_bits[i].store(env_bits(r, raw), std::memory_order_relaxed);
    if (present && static_cast<Knob>(i) == Knob::kTelemetry) telemetry_set = true;
  }
  // Setting a metrics path without ARMGEMM_TELEMETRY asks for the
  // exposition running from the first call.
  if (!telemetry_set && !texts.value[index(Knob::kMetricsPath)].empty())
    detail::g_knob_bits[index(Knob::kTelemetry)].store(1, std::memory_order_relaxed);
  return true;
}

void ensure_loaded() {
  static const bool loaded = load_environment();
  (void)loaded;
}

// telemetry_active() reads its row without ensure_loaded(), so the
// environment is loaded before main as well as at first use.
[[maybe_unused]] const bool g_loaded_at_startup = (ensure_loaded(), true);

std::int64_t int_knob(Knob k) { return static_cast<std::int64_t>(detail::knob_bits(k)); }
double double_knob(Knob k) { return std::bit_cast<double>(detail::knob_bits(k)); }
bool on_knob(Knob k) { return detail::knob_bits(k) != 0; }

}  // namespace

namespace detail {

constinit std::atomic<std::uint64_t> g_knob_bits[kKnobCount] = {};

std::uint64_t knob_bits(Knob k) {
  ensure_loaded();
  return g_knob_bits[index(k)].load(std::memory_order_relaxed);
}

std::int64_t parse_env_int64(const char* name, const char* raw, std::int64_t fallback,
                             std::int64_t min) {
  if (raw == nullptr || raw[0] == '\0') return fallback;
  std::int64_t v = 0;
  const char* why = parse_int(raw, v);
  char below[40];
  if (why == nullptr && v < min) {
    std::snprintf(below, sizeof below, "less than %lld", static_cast<long long>(min));
    why = v < 0 ? "negative" : below;
  }
  if (why == nullptr) return v;
  char fb[32];
  std::snprintf(fb, sizeof fb, "%lld", static_cast<long long>(fallback));
  warn_rejected(name, raw, why, fb);
  return fallback;
}

double parse_env_double(const char* name, const char* raw, double fallback,
                        bool allow_zero) {
  if (raw == nullptr || raw[0] == '\0') return fallback;
  double v = 0;
  const char* why = parse_double(raw, v);
  if (why == nullptr && (v < 0 || (v == 0 && !allow_zero)))
    why = allow_zero ? "negative" : "not positive";
  if (why == nullptr) return v;
  char fb[32];
  std::snprintf(fb, sizeof fb, "%g", fallback);
  warn_rejected(name, raw, why, fb);
  return fallback;
}

std::optional<bool> parse_on_off(std::string_view text) {
  text = trim(text);
  for (const char* on : {"1", "on", "true", "yes"})
    if (iequals(text, on)) return true;
  for (const char* off : {"0", "off", "false", "no"})
    if (iequals(text, off)) return false;
  return std::nullopt;
}

}  // namespace detail

const KnobRow& knob_row(Knob k) { return kRows[index(k)]; }

std::optional<Knob> find_knob(std::string_view env) {
  for (int i = 0; i < kKnobCount; ++i)
    if (env == kRows[i].env) return static_cast<Knob>(i);
  return std::nullopt;
}

bool set_knob(Knob k, const KnobValue& v) {
  ensure_loaded();
  const KnobRow& r = knob_row(k);
  if (r.type == kText) {
    const auto* text = std::get_if<std::string>(&v);
    if (text == nullptr) return false;
    TextStore& texts = text_store();
    std::lock_guard lock(texts.mutex);
    texts.value[index(k)] = *text;
    return true;
  }
  const std::optional<std::uint64_t> bits = code_bits(r, v);
  if (!bits) return false;
  detail::g_knob_bits[index(k)].store(*bits, std::memory_order_relaxed);
  return true;
}

std::string knob_text(Knob k) {
  const KnobRow& r = knob_row(k);
  if (r.type == kText) {
    ensure_loaded();
    TextStore& texts = text_store();
    std::lock_guard lock(texts.mutex);
    return texts.value[index(k)];
  }
  const std::uint64_t bits = detail::knob_bits(k);
  char buf[32];
  const std::to_chars_result end =
      r.type == kDouble ? std::to_chars(buf, buf + sizeof buf, std::bit_cast<double>(bits))
                        : std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(bits));
  return std::string(buf, end.ptr);
}

std::int64_t spin_wait_us() { return int_knob(Knob::kSpinUs); }
std::int64_t small_gemm_mnk() { return int_knob(Knob::kSmallMnk); }
std::int64_t prefetch_a_bytes() { return int_knob(Knob::kPrea); }
std::int64_t prefetch_b_bytes() { return int_knob(Knob::kPreb); }
std::int64_t queue_depth() { return int_knob(Knob::kQueueDepth); }
std::int64_t panel_cache_mb() { return int_knob(Knob::kPanelCacheMb); }
std::string metrics_path() { return knob_text(Knob::kMetricsPath); }
std::int64_t flight_depth() { return int_knob(Knob::kFlightDepth); }
double drift_threshold() { return double_knob(Knob::kDriftThreshold); }
bool phase_attribution_enabled() { return on_knob(Knob::kPhases); }
double slow_call_factor() { return double_knob(Knob::kSlowCallFactor); }
std::string forensics_dir() { return knob_text(Knob::kForensicsDir); }
double forensics_interval_s() { return double_knob(Knob::kForensicsInterval); }
int tune_mode() { return static_cast<int>(int_knob(Knob::kTune)); }
std::string tune_cache_path() { return knob_text(Knob::kTuneCache); }
std::int64_t tune_budget_ms() { return int_knob(Knob::kTuneBudgetMs); }
std::string cpu_classes_spec() { return knob_text(Knob::kCpuClasses); }
std::int64_t numa_nodes_override() { return int_knob(Knob::kNumaNodes); }
bool affinity_enabled() { return on_knob(Knob::kAffinity); }
std::int64_t panel_replicate_kb() { return int_knob(Knob::kPanelReplicateKb); }
bool weighted_schedule_enabled() { return on_knob(Knob::kWeightedSchedule); }
std::int64_t cross_node_steal_threshold() { return int_knob(Knob::kCrossNodeSteal); }

bool use_small_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
  const std::int64_t t = small_gemm_mnk();
  return t > 0 && m > 0 && n > 0 && k > 0 && volume_at_most(m, n, k, t);
}

}  // namespace ag
