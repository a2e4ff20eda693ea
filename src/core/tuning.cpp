#include "core/tuning.hpp"

#include <algorithm>
#include <cstddef>

#include "common/aligned_buffer.hpp"
#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "core/gemm_internal.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "threading/topology.hpp"

namespace ag {
namespace {

// Deterministic non-trivial operand fill: values in [0.25, 1), no zeros
// and no compensating patterns the kernels could short-circuit.
template <typename T>
void fill_operand(T* p, std::size_t count, std::uint32_t seed) {
  std::uint32_t s = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < count; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = static_cast<T>(0.25) +
           static_cast<T>(s >> 8) /
               static_cast<T>(1u << 24) * static_cast<T>(0.75);
  }
}

/// Applies the request's prefetch distances for the probe's duration and
/// restores the previous values on exit. Uses the tuner application path,
/// so a pinned prefetch knob is left untouched (the tuner does not probe
/// prefetch when it is pinned).
struct PrefetchGuard {
  bool active = false;
  std::int64_t saved_a = 0, saved_b = 0;

  PrefetchGuard(index_t prea, index_t preb) {
    if (prea < 0 && preb < 0) return;
    saved_a = prefetch_a_bytes();
    saved_b = prefetch_b_bytes();
    active = tuner_apply(Knob::kPrea, prea >= 0 ? prea : saved_a) &&
             tuner_apply(Knob::kPreb, preb >= 0 ? preb : saved_b);
  }
  ~PrefetchGuard() {
    if (active) {
      tuner_apply(Knob::kPrea, saved_a);
      tuner_apply(Knob::kPreb, saved_b);
    }
  }
};

/// Best-of-reps wall time of `fn` (one warmup call, two timed reps), as
/// Gflops. A rep repeats a sub-20 us call enough times to span about
/// 20 us, so the smallest probe shapes are timed above clock granularity
/// and per-call jitter.
template <typename Fn>
double time_probe(double flops, Fn&& fn) {
  Timer warmup;
  fn();  // warmup: faults the pages, warms the caches and branch state
  constexpr double kMinRepSeconds = 20e-6;
  const int calls = static_cast<int>(
      std::clamp(kMinRepSeconds / std::max(warmup.seconds(), 1e-9), 1.0, 256.0));
  double best = -1.0;
  for (int rep = 0; rep < 2; ++rep) {
    Timer t;
    for (int i = 0; i < calls; ++i) fn();
    const double s = t.seconds() / calls;
    if (best < 0 || s < best) best = s;
  }
  if (best <= 0) return 0;
  return flops / best * 1e-9;
}

/// One probe on freshly allocated operands: the blocked driver at one
/// rank with the candidate kernel and blocking, and no instrumentation.
template <typename T>
double run_probe_t(const tune::ProbeRequest& req, detail::KernelFnT<T> kernel) {
  AlignedBuffer<T> a(static_cast<std::size_t>(req.m * req.k));
  AlignedBuffer<T> b(static_cast<std::size_t>(req.k * req.n));
  AlignedBuffer<T> c(static_cast<std::size_t>(req.m * req.n));
  fill_operand(a.data(), static_cast<std::size_t>(req.m * req.k), 1);
  fill_operand(b.data(), static_cast<std::size_t>(req.k * req.n), 2);
  fill_operand(c.data(), static_cast<std::size_t>(req.m * req.n), 3);
  const double flops = 2.0 * static_cast<double>(req.m) * static_cast<double>(req.n) *
                       static_cast<double>(req.k);
  const detail::GemmCall<T> g{Trans::NoTrans, Trans::NoTrans, req.m, req.n, req.k, T(1),
                              a.data(), req.m, b.data(), req.k, T(0.5), c.data(), req.m};

  if (kernel == nullptr) return 0;
  detail::GemmPlan<T> plan;
  plan.kernel = kernel;
  plan.bs.mr = req.mr;
  plan.bs.nr = req.nr;
  plan.bs.kc = req.kc;
  plan.bs.mc = req.mc;
  plan.bs.nc = req.nc;
  plan.bs.validate();  // throws on a malformed candidate -> caught below, 0

  PackBuffers<T> scratch;
  return time_probe(flops, [&] {
    detail::gemm_blocked(g, plan, scratch, /*pool=*/nullptr, /*ranks=*/1, {});
  });
}

/// The real probe runner the tuner calls (through the injected pointer).
/// Any failure (bad candidate, allocation) reports 0, which the tuner
/// treats as "skip".
double run_probe(const tune::ProbeRequest& req) noexcept {
  if (req.m <= 0 || req.n <= 0 || req.k <= 0) return 0;
  try {
    PrefetchGuard prefetch(req.prea, req.preb);
    if (req.precision == tune::Precision::kF32)
      return run_probe_t<float>(req, best_smicrokernel().fn);
    return run_probe_t<double>(req, req.kernel ? req.kernel->fn : nullptr);
  } catch (...) {
    return 0;
  }
}

}  // namespace

void ensure_tune_probe_runner() { tune::install_default_probe_runner(&run_probe); }

ExecConfig resolve_exec_config(const Context& ctx, index_t m, index_t n, index_t k) {
  ExecConfig cfg;
  cfg.kernel = &ctx.kernel();
  cfg.bs = ctx.block_sizes();
  if (tune_mode() == kTuneModeOff) return cfg;  // untouched, unrecorded
  if (!ctx.tunable()) {
    cfg.source = tune::TuneSource::kPinned;
    tune::record_call(cfg.source);
    return cfg;
  }
  ensure_tune_probe_runner();
  const tune::TunedConfig* tc =
      tune::resolve(tune::Precision::kF64, m, n, k, ctx.threads());
  if (tc != nullptr && tc->kernel != nullptr) {
    cfg.kernel = tc->kernel;
    cfg.bs = tc->block_sizes(ctx.threads());
    cfg.source = tc->source;
  }
  // Per-class blocking dimension: only meaningful when the call will run
  // parallel on an asymmetric host with weighted claiming on. Touching
  // Topology::get() here also registers the obs topology source the
  // tune-side helper reads.
  if (ctx.threads() > 1 && weighted_schedule_enabled() &&
      Topology::get().asymmetric())
    cfg.mc_class = tune::per_class_mc(cfg.bs.mc, cfg.bs.mr);
  tune::record_call(cfg.source);
  return cfg;
}

}  // namespace ag
