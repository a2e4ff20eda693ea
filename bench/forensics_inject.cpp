// Deterministic anomaly injector for the forensics pipeline: provokes
// each capture trigger through the real dgemm record path and verifies
// that exactly the expected bundles appear.
//
//   forensics_inject --mode=drift --dir=/tmp/f     # drift-onset bundle
//   forensics_inject --mode=slow  --dir=/tmp/f     # slow-call bundle
//   forensics_inject --mode=manual --dir=/tmp/f    # manual capture
//   forensics_inject --mode=all   --dir=/tmp/f     # all three, in sequence
//
// drift:  builds a reference EWMA with calls under an honest injected
//         model, then sabotages the model (mu x100) and switches to a
//         different same-class shape (its expected-Gflops memo entry is
//         cold, so the sabotaged model is actually consulted). The
//         measured/expected ratio jumps, the detector flags an onset,
//         and the record path captures one drift bundle.
// slow:   warms a shape class's rolling p99 with >128 small calls, sets
//         ARMGEMM_SLOW_CALL_FACTOR=3, then runs two calls of an 8x-larger
//         same-class shape. Both exceed 3 x p99; the first captures, the
//         second must be suppressed by the rate limit (--interval, default
//         3600 s) — proving both the trigger and the limiter.
// manual: one warm call, then telemetry_forensics_capture().
//
// Exit codes: 0 all expectations held, 1 a bundle count / counter was
// wrong, 2 usage error. In a -DARMGEMM_STATS=OFF build every mode
// verifies that NO bundle is produced and the capture entry points
// return -1, then exits 0.
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "model/perf_model.hpp"
#include "obs/forensics.hpp"
#include "obs/telemetry.hpp"

namespace {

bool parse_flag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void run_square(ag::Context& ctx, std::int64_t s, int calls) {
  auto a = ag::random_matrix(s, s, 701);
  auto b = ag::random_matrix(s, s, 702);
  auto c = ag::random_matrix(s, s, 703);
  for (int i = 0; i < calls; ++i)
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s, 1.0,
              a.data(), a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
}

bool file_exists(const std::string& path) {
  return !path.empty() && std::ifstream(path).good();
}

int fail(const char* what, const ag::obs::ForensicsStats& s) {
  std::cerr << "forensics_inject: FAIL " << what << " (drift=" << s.captures[0]
            << " slow=" << s.captures[1] << " manual=" << s.captures[2]
            << " written=" << s.written << " suppressed=" << s.suppressed
            << " slow_calls=" << s.slow_calls << ")\n";
  return 1;
}

/// Fresh telemetry + forensics state with an honest model; every mode
/// starts here so modes compose under --mode=all.
void reset_clean() {
  ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
  ag::obs::telemetry_enable();
  ag::obs::telemetry_reset();
}

int inject_drift(ag::Context& ctx, bool to_disk) {
  reset_clean();
  // Baseline under a loose threshold: warm-up transients and scheduler
  // noise move the measured/expected ratio a few tens of percent, which
  // a tight threshold would mistake for the injected drift. The model
  // swap below shifts the ratio ~100x, so 5.0 vs 0.25 cleanly separates
  // noise from signal.
  ag::set_knob(ag::Knob::kDriftThreshold, 5.0);
  // Prime caches, then reset: cold-start calls are slow enough that the
  // fast EWMA racing ahead of the reference during warm-up would trip
  // the detector before the model swap gets its chance.
  run_square(ctx, 96, 20);
  ag::obs::telemetry_reset();
  // Reference leg: 96^3 (square, decade 5) under the honest model.
  run_square(ctx, 96, 60);
  if (ag::obs::telemetry_anomaly_count() != 0)
    return fail("baseline leg drifted on its own", ag::obs::forensics_stats());
  // Sabotage: mu x100 collapses the expected Gflops. 80^3 shares the
  // shape class but not the per-thread memo slot, so the new model is
  // priced on the very next call.
  ag::set_knob(ag::Knob::kDriftThreshold, 0.25);
  ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-8, 1e-9, 0.125}, 1.0);
  for (int i = 0; i < 200 && ag::obs::telemetry_anomaly_count() == 0; ++i)
    run_square(ctx, 80, 1);
  const ag::obs::ForensicsStats s = ag::obs::forensics_stats();
  if (ag::obs::telemetry_anomaly_count() == 0) return fail("drift never flagged", s);
  if (s.captures[static_cast<int>(ag::obs::ForensicsReason::kDrift)] != 1)
    return fail("expected exactly one drift capture", s);
  if (to_disk && (s.written != 1 || !file_exists(s.last_path)))
    return fail("drift bundle file missing", s);
  std::printf("forensics_inject: drift ok (bundle %s)\n",
              s.last_path.empty() ? "<memory>" : s.last_path.c_str());
  return 0;
}

int inject_slow(ag::Context& ctx, bool to_disk) {
  reset_clean();
  ag::set_knob(ag::Knob::kDriftThreshold, 1000.0);  // keep drift out of this experiment
  ag::set_knob(ag::Knob::kSlowCallFactor, 0.0);     // no triggers while warming
  // Keep 48^3 off the small path, in the square class of the 96^3 calls.
  const std::int64_t small_mnk = ag::small_gemm_mnk();
  ag::set_knob(ag::Knob::kSmallMnk, 0);
  // Prime caches and page tables, then reset so the recorded window is
  // all-warm: cold-start outliers would otherwise inflate the class p99
  // past what the slow leg can exceed.
  run_square(ctx, 48, 20);
  ag::obs::telemetry_reset();
  // 150 calls of 48^3 (square, decade 5): the rolling p99 refreshes at
  // records 64 and 128, so it reflects the warm shape by the slow leg.
  run_square(ctx, 48, 150);
  ag::set_knob(ag::Knob::kSlowCallFactor, 3.0);
  // 96^3 calls (same shape class, decade 5) through a pathologically
  // blocked context: kc=1, mc=8, nc=6 repacks both operands constantly
  // and runs one rank-1 update per kernel call, so the calls land far
  // beyond 3 x p99 even when scheduler outliers inflate the warm window's
  // p99 (kc=8 did not always). First detection captures; the next must
  // hit the rate limit. Two calls suffice on a plain build; sanitizer
  // jitter can inflate the warm p99 with multi-ms outliers, so retry
  // (bounded well short of the 64-record refresh that would fold these
  // calls into the p99).
  ag::Context slow_ctx(ag::KernelShape{8, 6}, 1);
  ag::BlockSizes tiny;
  tiny.kc = 1;
  tiny.mc = 8;
  tiny.nc = 6;
  slow_ctx.set_block_sizes(tiny);
  for (int i = 0; i < 12 && ag::obs::forensics_stats().slow_calls < 2; ++i)
    run_square(slow_ctx, 96, 1);
  ag::set_knob(ag::Knob::kSlowCallFactor, 0.0);
  ag::set_knob(ag::Knob::kSmallMnk, small_mnk);
  const ag::obs::ForensicsStats s = ag::obs::forensics_stats();
  if (s.slow_calls < 2) return fail("slow-call threshold never hit twice", s);
  if (s.captures[static_cast<int>(ag::obs::ForensicsReason::kSlowCall)] != 1)
    return fail("expected exactly one slow-call capture", s);
  if (s.suppressed < 1) return fail("rate limit never suppressed", s);
  if (to_disk && (s.written != 1 || !file_exists(s.last_path)))
    return fail("slow-call bundle file missing", s);
  std::printf("forensics_inject: slow ok (bundle %s, %llu suppressed)\n",
              s.last_path.empty() ? "<memory>" : s.last_path.c_str(),
              static_cast<unsigned long long>(s.suppressed));
  return 0;
}

int inject_manual(ag::Context& ctx, bool to_disk) {
  reset_clean();
  run_square(ctx, 64, 4);
  if (ag::obs::telemetry_forensics_capture() != 0) {
    std::cerr << "forensics_inject: FAIL manual capture returned nonzero\n";
    return 1;
  }
  const ag::obs::ForensicsStats s = ag::obs::forensics_stats();
  if (s.captures[static_cast<int>(ag::obs::ForensicsReason::kManual)] != 1)
    return fail("expected exactly one manual capture", s);
  if (to_disk && (s.written != 1 || !file_exists(s.last_path)))
    return fail("manual bundle file missing", s);
  if (ag::obs::forensics_last_bundle_json().empty())
    return fail("empty in-memory bundle", s);
  std::printf("forensics_inject: manual ok (bundle %s)\n",
              s.last_path.empty() ? "<memory>" : s.last_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "all";
  std::string dir;
  double interval = 3600.0;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "mode", &v)) {
      mode = v;
    } else if (parse_flag(argv[i], "dir", &v)) {
      dir = v;
    } else if (parse_flag(argv[i], "interval", &v)) {
      interval = std::atof(v.c_str());
    } else {
      std::cerr << "forensics_inject: unknown argument " << argv[i] << "\n";
      return 2;
    }
  }
  if (mode != "drift" && mode != "slow" && mode != "manual" && mode != "all") {
    std::cerr << "forensics_inject: --mode must be drift, slow, manual or all\n";
    return 2;
  }

  if (!ag::obs::stats_compiled_in) {
    // -DARMGEMM_STATS=OFF: the whole pipeline must be inert.
    if (ag::obs::telemetry_forensics_capture() != -1) {
      std::cerr << "forensics_inject: capture succeeded in a stats-off build\n";
      return 1;
    }
    const ag::obs::ForensicsStats s = ag::obs::forensics_stats();
    if (s.total_captures() != 0 || s.written != 0)
      return fail("stats-off build produced a bundle", s);
    std::printf("forensics_inject: stats compiled out, no bundles (ok)\n");
    return 0;
  }

  // Create the bundle directory (and parents); EEXIST is fine.
  for (std::size_t pos = 0; pos != std::string::npos && !dir.empty();) {
    pos = dir.find('/', pos + 1);
    ::mkdir(dir.substr(0, pos).c_str(), 0755);
  }
  ag::set_knob(ag::Knob::kMetricsPath, "");  // no drift-triggered metric dumps mid-run
  ag::set_knob(ag::Knob::kForensicsDir, dir);
  ag::set_knob(ag::Knob::kForensicsInterval, interval);
  const bool to_disk = !dir.empty();

  ag::Context ctx(ag::KernelShape{8, 6}, 1);
  int rc = 0;
  if (mode == "drift" || mode == "all") rc = rc ? rc : inject_drift(ctx, to_disk);
  if (mode == "slow" || mode == "all") rc = rc ? rc : inject_slow(ctx, to_disk);
  if (mode == "manual" || mode == "all") rc = rc ? rc : inject_manual(ctx, to_disk);
  ag::obs::telemetry_disable();
  return rc;
}
