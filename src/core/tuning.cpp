#include "core/tuning.hpp"

#include "common/knobs.hpp"
#include "threading/topology.hpp"

namespace ag {

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
