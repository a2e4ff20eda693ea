#include "obs/forensics.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "obs/expected.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/telemetry.hpp"

namespace ag::obs {

const char* to_string(ForensicsReason r) {
  switch (r) {
    case ForensicsReason::kDrift: return "drift";
    case ForensicsReason::kSlowCall: return "slow_call";
    case ForensicsReason::kManual: return "manual";
    default: return "?";
  }
}

#ifdef ARMGEMM_STATS_DISABLED

int forensics_capture(const ForensicsTrigger&) { return -1; }
int telemetry_forensics_capture() { return -1; }
ForensicsStats forensics_stats() { return {}; }
std::string forensics_last_bundle_json() { return {}; }
void forensics_reset() {}
void forensics_note_slow_call() {}

#else

namespace {

struct Forensics {
  std::array<std::atomic<std::uint64_t>, kForensicsReasonCount> captures{};
  std::atomic<std::uint64_t> written{0};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> suppressed{0};
  std::atomic<std::uint64_t> slow_calls{0};
  // Bundle filename sequence; survives forensics_reset so a reset never
  // recycles a name a previous capture already published.
  std::atomic<std::uint64_t> seq{0};
  // Steady-clock seconds of the last automatic capture (the rate-limit
  // clock); 0 = never. CAS-claimed so concurrent anomalies elect exactly
  // one capturer per interval.
  std::atomic<double> last_auto_s{0};

  std::mutex last_mutex;  // guards the last-capture summary below
  double last_t = -1;
  std::string last_reason;
  std::string last_path;
  std::string last_bundle;
  double last_wall = 0;
  std::string last_top_phase;
  double last_top_share = 0;
};

Forensics& F() {
  static Forensics* f = new Forensics;  // leaky: read at process-exit dump time
  return *f;
}

/// Prices the expected phase split of one call under the Section III
/// model: kernel = F*mu (+ C traffic), pack_a/pack_b = words * pi, all
/// divided across the call's threads. Returns false with no model or no
/// usable shape. Shares (not absolute seconds) are what the bundle
/// reports — the model's absolute time is a lower bound, but the *split*
/// is the diagnosable expectation.
bool expected_phase_shares(const CallRecord& c, const BlockSizes& bs,
                           std::array<double, kPhaseCount>& shares) {
  shares.fill(0.0);
  model::CostParams cost;
  if (!telemetry_model_params(nullptr, &cost, nullptr)) return false;
  if (c.m <= 0 || c.n <= 0 || c.k <= 0) return false;
  const double flops = 2.0 * static_cast<double>(c.m) * static_cast<double>(c.n) *
                       static_cast<double>(c.k);
  double kernel_s = flops * cost.mu;
  double pack_a_s = 0, pack_b_s = 0;
  if (c.schedule != ScheduleKind::kSmall) {
    const LayerCounters exp = expected_gemm_counters(c.m, c.n, c.k, bs);
    pack_a_s = static_cast<double>(exp.pack_a_bytes) / 8.0 * cost.pi;
    pack_b_s = static_cast<double>(exp.pack_b_bytes) / 8.0 * cost.pi;
    kernel_s += static_cast<double>(exp.c_bytes) / 8.0 * cost.pi;
  }
  const double total = kernel_s + pack_a_s + pack_b_s;
  if (!(total > 0)) return false;
  shares[static_cast<int>(Phase::kKernel)] = kernel_s / total;
  shares[static_cast<int>(Phase::kPackA)] = pack_a_s / total;
  shares[static_cast<int>(Phase::kPackB)] = pack_b_s / total;
  return true;
}

void json_phase_map(std::ostream& os, const std::array<double, kPhaseCount>& v) {
  os << "{";
  for (int p = 0; p < kPhaseCount; ++p)
    os << (p ? "," : "") << "\"" << phase_name(p) << "\":" << v[p];
  os << "}";
}

std::string build_bundle(const ForensicsTrigger& tr, const TelemetrySnapshot& snap,
                         const BlockSizes& bs, const Forensics& f) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"schema\":\"armgemm-forensics/1\",\"reason\":\"" << to_string(tr.reason)
     << "\",\"t\":" << (tr.have_call ? tr.call.t : snap.uptime_seconds)
     << ",\"uptime_seconds\":" << snap.uptime_seconds;

  os << ",\"call\":";
  if (tr.have_call)
    os << tr.call.to_json();
  else
    os << "null";

  // Phase attribution of the offending call, measured vs expected.
  os << ",\"phases\":";
  if (tr.have_call && tr.call.has_phases()) {
    const CallPhases& ph = tr.call.phases;
    std::array<double, kPhaseCount> measured{}, share{};
    double attributed = 0;
    for (int p = 0; p < kPhaseCount; ++p) {
      measured[p] = ph.attributed(p);
      attributed += measured[p];
      share[p] = tr.call.seconds > 0 ? measured[p] / tr.call.seconds : 0.0;
    }
    os << "{\"workers\":" << ph.workers << ",\"wall_seconds\":" << tr.call.seconds
       << ",\"attributed_seconds\":" << attributed << ",\"unattributed_seconds\":"
       << (tr.call.seconds > attributed ? tr.call.seconds - attributed : 0.0)
       << ",\"measured_seconds\":";
    json_phase_map(os, measured);
    os << ",\"measured_share\":";
    json_phase_map(os, share);
    std::array<double, kPhaseCount> expected{};
    if (expected_phase_shares(tr.call, bs, expected)) {
      os << ",\"expected_share\":";
      json_phase_map(os, expected);
    } else {
      os << ",\"expected_share\":null";
    }
    os << "}";
  } else {
    os << "null";
  }

  // The analytic expectation the call violated.
  os << ",\"expectation\":{";
  if (tr.have_call) {
    const double ratio = tr.call.expected_gflops > 0 && tr.call.gflops > 0
                             ? tr.call.gflops / tr.call.expected_gflops
                             : 0.0;
    os << "\"expected_gflops\":" << tr.call.expected_gflops
       << ",\"measured_gflops\":" << tr.call.gflops << ",\"ratio\":" << ratio;
  } else {
    os << "\"expected_gflops\":0,\"measured_gflops\":0,\"ratio\":0";
  }
  os << ",\"drift\":";
  if (tr.reason == ForensicsReason::kDrift) {
    os << "{\"fast_ewma\":" << tr.fast_ewma << ",\"reference_ewma\":" << tr.reference_ewma
       << ",\"threshold\":" << tr.drift_threshold << "}";
  } else {
    os << "null";
  }
  os << ",\"slow_call\":";
  if (tr.reason == ForensicsReason::kSlowCall) {
    os << "{\"p99_seconds\":" << tr.p99_seconds << ",\"factor\":" << tr.slow_factor << "}";
  } else {
    os << "null";
  }
  os << "}";

  os << ",\"pmu\":{\"hardware\":"
     << ((tr.have_call && tr.call.pmu_hardware) ? "true" : "false") << "}";

  os << ",\"flight\":" << flight_to_json(snap.flight);
  os << "," << render_metrics(snap, MetricsFormat::kJsonRuntime);

  os << ",\"rate_limit\":{\"interval_seconds\":" << forensics_interval_s()
     << ",\"suppressed\":" << f.suppressed.load(std::memory_order_relaxed)
     << ",\"captures\":";
  std::uint64_t total = 0;
  for (const auto& c : f.captures) total += c.load(std::memory_order_relaxed);
  os << total << "}}";
  return os.str();
}

int do_capture(ForensicsTrigger tr, bool rate_limited, const BlockSizes& bs) {
  Forensics& f = F();
  if (rate_limited) {
    const double interval = forensics_interval_s();
    if (interval > 0) {
      const double now = now_seconds();
      double last = f.last_auto_s.load(std::memory_order_relaxed);
      for (;;) {
        if (last > 0 && now - last < interval) {
          f.suppressed.fetch_add(1, std::memory_order_relaxed);
          return -1;
        }
        // CAS claims the interval: of N concurrent anomalies exactly one
        // wins; the losers see the winner's timestamp and suppress.
        if (f.last_auto_s.compare_exchange_weak(last, now, std::memory_order_relaxed))
          break;
      }
    }
  }
  f.captures[static_cast<int>(tr.reason)].fetch_add(1, std::memory_order_relaxed);

  const TelemetrySnapshot snap = telemetry_snapshot();
  if (!tr.have_call && !snap.flight.empty()) {
    tr.call = snap.flight.back();
    tr.have_call = true;
  }
  const std::string bundle = build_bundle(tr, snap, bs, f);

  std::string path;
  const std::string dir = forensics_dir();
  if (!dir.empty()) {
    const std::uint64_t seq = f.seq.fetch_add(1, std::memory_order_relaxed);
    path = dir + "/forensics-" + std::to_string(seq) + "-" + to_string(tr.reason) +
           ".json";
    if (write_file_atomically(path, bundle + "\n")) {
      f.written.fetch_add(1, std::memory_order_relaxed);
    } else {
      f.write_failures.fetch_add(1, std::memory_order_relaxed);
      path.clear();
    }
  }

  // Last-capture summary for the exposition / armgemm-top panel.
  {
    std::lock_guard lock(f.last_mutex);
    f.last_t = tr.have_call ? tr.call.t : snap.uptime_seconds;
    f.last_reason = to_string(tr.reason);
    f.last_path = path;
    f.last_bundle = bundle;
    f.last_wall = tr.have_call ? tr.call.seconds : 0.0;
    f.last_top_phase.clear();
    f.last_top_share = 0;
    if (tr.have_call && tr.call.has_phases() && tr.call.seconds > 0) {
      int top = 0;
      for (int p = 1; p < kPhaseCount; ++p)
        if (tr.call.phases.seconds[p] > tr.call.phases.seconds[top]) top = p;
      f.last_top_phase = phase_name(top);
      f.last_top_share = tr.call.phases.attributed(top) / tr.call.seconds;
    }
  }
  return 0;
}

}  // namespace

int forensics_capture(const ForensicsTrigger& trigger) {
  return do_capture(trigger, /*rate_limited=*/trigger.reason != ForensicsReason::kManual,
                    trigger.bs);
}

int telemetry_forensics_capture() {
  ForensicsTrigger tr;
  tr.reason = ForensicsReason::kManual;
  return do_capture(tr, /*rate_limited=*/false, BlockSizes{});
}

ForensicsStats forensics_stats() {
  Forensics& f = F();
  ForensicsStats s;
  for (int r = 0; r < kForensicsReasonCount; ++r)
    s.captures[r] = f.captures[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
  s.written = f.written.load(std::memory_order_relaxed);
  s.write_failures = f.write_failures.load(std::memory_order_relaxed);
  s.suppressed = f.suppressed.load(std::memory_order_relaxed);
  s.slow_calls = f.slow_calls.load(std::memory_order_relaxed);
  std::lock_guard lock(f.last_mutex);
  s.last_t = f.last_t;
  s.last_reason = f.last_reason;
  s.last_path = f.last_path;
  s.last_wall_seconds = f.last_wall;
  s.last_top_phase = f.last_top_phase;
  s.last_top_share = f.last_top_share;
  return s;
}

std::string forensics_last_bundle_json() {
  Forensics& f = F();
  std::lock_guard lock(f.last_mutex);
  return f.last_bundle;
}

void forensics_reset() {
  Forensics& f = F();
  for (auto& c : f.captures) c.store(0, std::memory_order_relaxed);
  f.written.store(0, std::memory_order_relaxed);
  f.write_failures.store(0, std::memory_order_relaxed);
  f.suppressed.store(0, std::memory_order_relaxed);
  f.slow_calls.store(0, std::memory_order_relaxed);
  f.last_auto_s.store(0, std::memory_order_relaxed);
  std::lock_guard lock(f.last_mutex);
  f.last_t = -1;
  f.last_reason.clear();
  f.last_path.clear();
  f.last_bundle.clear();
  f.last_wall = 0;
  f.last_top_phase.clear();
  f.last_top_share = 0;
}

void forensics_note_slow_call() {
  F().slow_calls.fetch_add(1, std::memory_order_relaxed);
}

#endif  // ARMGEMM_STATS_DISABLED

// Formats only the stats it is given, so both builds render the same
// object for the same stats (all zeros when stats are compiled out), as
// the text exposition's forensics families do.
std::string forensics_summary_json(const ForensicsStats& s) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"captures\":{";
  for (int r = 0; r < kForensicsReasonCount; ++r)
    os << (r ? "," : "") << "\"" << to_string(static_cast<ForensicsReason>(r))
       << "\":" << s.captures[r];
  os << "},\"written\":" << s.written << ",\"write_failures\":" << s.write_failures
     << ",\"suppressed\":" << s.suppressed << ",\"slow_calls\":" << s.slow_calls
     << ",\"last\":";
  if (s.last_reason.empty()) {
    os << "null";
  } else {
    os << "{\"reason\":\"" << s.last_reason << "\",\"t\":" << s.last_t
       << ",\"wall_seconds\":" << s.last_wall_seconds
       << ",\"path\":" << JsonWriter::quoted(s.last_path) << ",\"top_phase\":\""
       << s.last_top_phase << "\",\"top_phase_share\":" << s.last_top_share << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace ag::obs
