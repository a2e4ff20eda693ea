#include "tune/cache_file.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "obs/telemetry.hpp"

namespace ag::tune {

namespace {

constexpr const char* kSchema = "armgemm-tune/1";


int kind_from_string(const std::string& s) {
  for (int k = 0; k < obs::kShapeKindCount; ++k)
    if (s == obs::to_string(static_cast<obs::ShapeKind>(k))) return k;
  return -1;
}

bool valid_entry(const TunedConfig& e) {
  if (e.kind < 0 || e.kind >= obs::kShapeKindCount) return false;
  if (e.decade < 0 || e.decade >= obs::kShapeDecades) return false;
  if (e.mr <= 0 || e.nr <= 0 || e.kc <= 0) return false;
  if (e.mc < e.mr || e.nc < e.nr || e.mc_mt < e.mr || e.nc_mt < e.nr) return false;
  if (e.mc % e.mr != 0 || e.mc_mt % e.mr != 0) return false;
  if (e.precision == Precision::kF64) {
    // The kernel must exist in this build for the entry to be runnable.
    if (find_best_microkernel({e.mr, e.nr}) == nullptr) return false;
  }
  return true;
}

}  // namespace

// Arch and core count identify the machine and are stable run to run.
// The calibrated constants are recorded for inspection but deliberately
// NOT gated on: the reduced-budget calibration jitters by large factors
// on shared/virtualized hosts, and a flaky fingerprint would turn every
// other process start into a cold one. Finer-grained staleness (thermal
// state, co-tenancy) is the runtime drift detector's job.
bool HostFingerprint::compatible(const HostFingerprint& other) const {
  if (arch != other.arch || cores != other.cores) return false;
  return peak_gflops > 0 && other.peak_gflops > 0;
}

HostFingerprint host_fingerprint(double peak_gflops, double mu, double pi) {
  HostFingerprint fp;
  const Microkernel* best = find_best_microkernel({8, 6});
  fp.arch = std::string(best ? to_string(best->isa) : "none") + "-" +
            std::to_string(sizeof(void*) * 8) + "bit";
  fp.cores = static_cast<int>(std::thread::hardware_concurrency());
  fp.peak_gflops = peak_gflops;
  fp.mu = mu;
  fp.pi = pi;
  return fp;
}

const char* to_string(CacheLoadStatus s) {
  switch (s) {
    case CacheLoadStatus::kOk: return "ok";
    case CacheLoadStatus::kMissing: return "missing";
    case CacheLoadStatus::kParseError: return "parse-error";
    case CacheLoadStatus::kSchemaMismatch: return "schema-mismatch";
    case CacheLoadStatus::kFingerprintMismatch: return "fingerprint-mismatch";
  }
  return "?";
}

std::string render_cache_json(const TuneCacheData& data) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("fingerprint")
      .begin_object()
      .key("arch").value(data.fingerprint.arch)
      .key("cores").value(data.fingerprint.cores)
      .key("peak_gflops").value(data.fingerprint.peak_gflops)
      .key("mu").value(data.fingerprint.mu)
      .key("pi").value(data.fingerprint.pi)
      .end_object();
  w.key("prea").value(data.prea);
  w.key("preb").value(data.preb);
  w.key("entries").begin_array();
  for (const TunedConfig& e : data.entries) {
    w.begin_object()
        .key("precision").value(to_string(e.precision))
        .key("kind").value(obs::to_string(static_cast<obs::ShapeKind>(e.kind)))
        .key("decade").value(e.decade)
        .key("kernel").value(e.kernel_name)
        .key("mr").value(e.mr)
        .key("nr").value(e.nr)
        .key("kc").value(e.kc)
        .key("mc").value(e.mc)
        .key("nc").value(e.nc)
        .key("mc_mt").value(e.mc_mt)
        .key("nc_mt").value(e.nc_mt)
        .key("prea").value(e.prea)
        .key("preb").value(e.preb)
        .key("source").value(to_string(e.source))
        .key("gflops").value(e.gflops)
        .key("probe_ms").value(e.probe_ms)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

CacheLoadStatus parse_cache_json(const std::string& text, const HostFingerprint& host,
                                 TuneCacheData* out, std::uint64_t* rejected_entries) {
  std::string error;
  const JsonValue doc = JsonValue::parse(text, &error);
  if (!doc.is_object()) return CacheLoadStatus::kParseError;
  if (doc["schema"].as_string() != kSchema) return CacheLoadStatus::kSchemaMismatch;

  const JsonValue& fp = doc["fingerprint"];
  TuneCacheData data;
  data.fingerprint.arch = fp["arch"].as_string();
  data.fingerprint.cores = static_cast<int>(fp["cores"].as_number());
  data.fingerprint.peak_gflops = fp["peak_gflops"].as_number();
  data.fingerprint.mu = fp["mu"].as_number();
  data.fingerprint.pi = fp["pi"].as_number();
  if (!host.compatible(data.fingerprint)) return CacheLoadStatus::kFingerprintMismatch;

  data.prea = static_cast<index_t>(doc["prea"].as_number(0));
  data.preb = static_cast<index_t>(doc["preb"].as_number(0));

  for (const JsonValue& item : doc["entries"].items()) {
    TunedConfig e;
    e.precision =
        item["precision"].as_string() == "f32" ? Precision::kF32 : Precision::kF64;
    e.kind = kind_from_string(item["kind"].as_string());
    e.decade = static_cast<int>(item["decade"].as_number(-1));
    e.kernel_name = item["kernel"].as_string();
    e.mr = static_cast<int>(item["mr"].as_number());
    e.nr = static_cast<int>(item["nr"].as_number());
    e.kc = static_cast<index_t>(item["kc"].as_number());
    e.mc = static_cast<index_t>(item["mc"].as_number());
    e.nc = static_cast<index_t>(item["nc"].as_number());
    e.mc_mt = static_cast<index_t>(item["mc_mt"].as_number());
    e.nc_mt = static_cast<index_t>(item["nc_mt"].as_number());
    e.prea = static_cast<index_t>(item["prea"].as_number());
    e.preb = static_cast<index_t>(item["preb"].as_number());
    e.gflops = item["gflops"].as_number();
    e.probe_ms = item["probe_ms"].as_number();
    e.source = TuneSource::kCached;
    if (e.precision == Precision::kF64) {
      const Microkernel* k = find_best_microkernel({e.mr, e.nr});
      e.kernel = k;
      if (k != nullptr && e.kernel_name.empty()) e.kernel_name = k->name;
    }
    if (valid_entry(e)) {
      data.entries.push_back(std::move(e));
    } else if (rejected_entries != nullptr) {
      ++*rejected_entries;
    }
  }
  *out = std::move(data);
  return CacheLoadStatus::kOk;
}

CacheLoadStatus load_cache_file(const std::string& path, const HostFingerprint& host,
                                TuneCacheData* out, std::uint64_t* rejected_entries) {
  std::ifstream is(path);
  if (!is) return CacheLoadStatus::kMissing;
  std::ostringstream text;
  text << is.rdbuf();
  if (is.bad()) return CacheLoadStatus::kParseError;
  return parse_cache_json(text.str(), host, out, rejected_entries);
}

bool write_cache_file(const std::string& path, const TuneCacheData& data) {
  return !path.empty() && write_file_atomically(path, render_cache_json(data));
}

}  // namespace ag::tune
