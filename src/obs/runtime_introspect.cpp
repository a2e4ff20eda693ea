#include "obs/runtime_introspect.hpp"

#include <atomic>

namespace ag::obs {

namespace {

std::atomic<SchedulerStatsFn> g_scheduler_source{nullptr};
std::atomic<PanelCacheStatsFn> g_panel_cache_source{nullptr};
std::atomic<TuneStatsFn> g_tune_source{nullptr};
std::atomic<TopologyStatsFn> g_topology_source{nullptr};

}  // namespace

const char* tune_source_name(int source) {
  switch (source) {
    case 0: return "none";
    case 1: return "analytic";
    case 2: return "cached";
    case 3: return "pinned";
  }
  return "?";
}

void set_scheduler_stats_source(SchedulerStatsFn fn) {
  g_scheduler_source.store(fn, std::memory_order_release);
}

void set_panel_cache_stats_source(PanelCacheStatsFn fn) {
  g_panel_cache_source.store(fn, std::memory_order_release);
}

bool scheduler_stats_available() {
  return g_scheduler_source.load(std::memory_order_acquire) != nullptr;
}

bool panel_cache_stats_available() {
  return g_panel_cache_source.load(std::memory_order_acquire) != nullptr;
}

SchedulerStats scheduler_stats() {
  const SchedulerStatsFn fn = g_scheduler_source.load(std::memory_order_acquire);
  return fn ? fn() : SchedulerStats{};
}

PanelCacheStats panel_cache_stats() {
  const PanelCacheStatsFn fn = g_panel_cache_source.load(std::memory_order_acquire);
  return fn ? fn() : PanelCacheStats{};
}

void set_tune_stats_source(TuneStatsFn fn) {
  g_tune_source.store(fn, std::memory_order_release);
}

bool tune_stats_available() {
  return g_tune_source.load(std::memory_order_acquire) != nullptr;
}

TuneStats tune_stats() {
  const TuneStatsFn fn = g_tune_source.load(std::memory_order_acquire);
  return fn ? fn() : TuneStats{};
}

const char* topology_source_name(int source) {
  switch (source) {
    case 0: return "flat";
    case 1: return "sysfs";
    case 2: return "env";
  }
  return "?";
}

void set_topology_stats_source(TopologyStatsFn fn) {
  g_topology_source.store(fn, std::memory_order_release);
}

bool topology_stats_available() {
  return g_topology_source.load(std::memory_order_acquire) != nullptr;
}

TopologyStats topology_stats() {
  const TopologyStatsFn fn = g_topology_source.load(std::memory_order_acquire);
  return fn ? fn() : TopologyStats{};
}

}  // namespace ag::obs
