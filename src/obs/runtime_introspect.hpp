// Runtime introspection: snapshot types and source registration for the
// serving runtime's scheduler (threading/persistent_pool), packed-B
// panel cache (core/panel_cache), and the autotuner (src/tune).
//
// Layering: obs never links threading, core, or tune, so it cannot call
// PersistentPool::instance() itself. Instead the pool, the cache, and
// the tuner register a snapshot *source* (a plain function pointer) here
// when their process-wide singletons come up, and the telemetry
// exposition pulls through that indirection. Until a source registers
// (i.e. until the first batch / tunable call touches the runtime) the
// snapshots report `registered == false` and renderers skip the section.
//
// The structs are plain data: safe to copy out of locks, serialize, and
// mirror into the C API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ag::obs {

/// One scheduler lane's counters: a persistent-pool worker, or the
/// merged "callers" lane (every submitting thread that helped drain the
/// queue records there).
struct SchedulerWorkerStats {
  std::string name;                  // "armgemm-pw<rank>" or "callers"
  std::uint64_t tickets_run = 0;     // tickets executed (queue pops + inline)
  std::uint64_t tickets_stolen = 0;  // pops from a non-home shard
  std::uint64_t steals_local = 0;    // of those, from a same-node shard
  std::uint64_t steals_remote = 0;   // of those, from a cross-node shard
  std::uint64_t tickets_inline = 0;  // admission-overflow tickets (callers only)
  std::uint64_t steal_attempts = 0;  // foreign-shard probes
  std::uint64_t steal_failures = 0;  // foreign-shard probes that found nothing
  std::uint64_t blocks = 0;          // spin window expired -> OS block transitions
  double busy_seconds = 0;           // time inside run_ticket
  double idle_seconds = 0;           // time scanning/spinning/blocked (workers)

  /// Busy fraction of the observed lifetime; 0 when nothing recorded.
  double utilization() const {
    const double total = busy_seconds + idle_seconds;
    return total > 0 ? busy_seconds / total : 0.0;
  }
};

/// Merged scheduler snapshot of the persistent batch pool.
struct SchedulerStats {
  int workers = 0;                       // current worker-thread count
  std::int64_t queued = 0;               // tickets sitting in the queue now
  std::uint64_t submissions = 0;         // execute() calls since process start
  std::uint64_t tickets_enqueued = 0;    // tickets that entered the queue
  std::uint64_t tickets_inline = 0;      // tickets admission forced inline
  std::vector<SchedulerWorkerStats> per_worker;  // workers, then "callers"

  /// Pool-wide busy fraction over the worker lanes (callers excluded:
  /// their idle time is not the pool's).
  double utilization() const {
    double busy = 0, total = 0;
    for (const SchedulerWorkerStats& w : per_worker) {
      if (w.name == "callers") continue;
      busy += w.busy_seconds;
      total += w.busy_seconds + w.idle_seconds;
    }
    return total > 0 ? busy / total : 0.0;
  }

  /// Max-over-mean tickets_run across worker lanes: 1.0 = perfectly
  /// balanced, rising as stealing fails to even out the load. 0 when no
  /// worker ran a ticket (e.g. caller-only draining).
  double steal_imbalance() const {
    std::uint64_t max_run = 0, sum = 0;
    int lanes = 0;
    for (const SchedulerWorkerStats& w : per_worker) {
      if (w.name == "callers") continue;
      ++lanes;
      sum += w.tickets_run;
      if (w.tickets_run > max_run) max_run = w.tickets_run;
    }
    if (lanes == 0 || sum == 0) return 0.0;
    const double mean = static_cast<double>(sum) / lanes;
    return static_cast<double>(max_run) / mean;
  }

  /// Same-node / cross-node steal totals over every lane (the
  /// steal-locality signal of the topology-ordered scan).
  std::uint64_t steals_local_total() const {
    std::uint64_t sum = 0;
    for (const SchedulerWorkerStats& w : per_worker) sum += w.steals_local;
    return sum;
  }
  std::uint64_t steals_remote_total() const {
    std::uint64_t sum = 0;
    for (const SchedulerWorkerStats& w : per_worker) sum += w.steals_remote;
    return sum;
  }
};

/// Packed-B panel-cache snapshot (core/panel_cache). The per-class
/// breakdown keys hits/misses by the requesting entry's telemetry shape
/// class (ShapeClass::index()); -1 collects untagged requests.
struct PanelCacheStats {
  std::uint64_t hits = 0;        // served an already-present panel
  std::uint64_t misses = 0;      // key absent; requester packed it
  std::uint64_t inserts = 0;     // panels published (packs; == misses)
  std::uint64_t bypasses = 0;    // caching off / would not fit
  std::uint64_t evictions = 0;   // panels dropped to make room
  std::uint64_t wait_stalls = 0; // hits that had to wait for a mid-pack panel
  double wait_seconds = 0;       // total time spent in those waits
  std::uint64_t epochs = 0;      // begin_epoch() calls (batch-call count)
  std::uint64_t resident_bytes = 0;  // bytes of panels resident right now
  std::uint64_t peak_bytes = 0;      // high-water resident_bytes
  std::uint64_t resident_panels = 0; // panels resident right now
  std::uint64_t node_replicas = 0;   // packs that were per-NUMA-node replicas

  struct ClassStats {
    int shape_class = -1;  // obs::ShapeClass::index(); -1 = untagged
    std::uint64_t hits = 0, misses = 0;
  };
  std::vector<ClassStats> by_class;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

/// Autotuner snapshot (src/tune registers the source). Sources of a
/// resolved configuration, mirrored from tune::TuneSource so obs stays
/// layer-clean: 0 none, 1 analytic (the anchor; no cache entry), 2
/// cached (loaded from the per-host cache file), 3 pinned (context
/// explicitly configured; tuner bypassed).
inline constexpr int kTuneSourceCount = 4;
const char* tune_source_name(int source);  // "none" | "analytic" | ...

struct TuneStats {
  int mode = 0;                    // common/knobs kTuneMode*
  bool cache_path_set = false;
  std::uint64_t cache_entries_loaded = 0;  // entries accepted from the file
  std::uint64_t cache_rejected = 0;        // files/entries refused (schema, fingerprint, parse)
  std::uint64_t resolutions[kTuneSourceCount] = {};  // keys resolved, by source
  std::uint64_t calls[kTuneSourceCount] = {};        // dgemm/sgemm calls, by config source
};

/// One core class of the host topology (threading/topology registers the
/// source). `weight` is the refined relative throughput actually driving
/// ticket-span sizing; `weight_seed` is the discovery-time estimate
/// (sysfs capacity / env override / calibration probe) it started from.
struct TopologyClassStats {
  int cls = 0;              // class index (0 = fastest by seed)
  int cpus = 0;             // cores in the class
  double weight_seed = 1.0;
  double weight = 1.0;
  std::uint64_t tickets = 0;   // pool tickets run by workers of this class
  double busy_seconds = 0;     // summed worker busy time in this class
};

/// How the topology snapshot was produced: 0 flat fallback (no sysfs, no
/// override: every core one class, one node), 1 sysfs discovery, 2
/// ARMGEMM_CPU_CLASSES / ARMGEMM_NUMA_NODES override.
inline constexpr int kTopologySourceCount = 3;
const char* topology_source_name(int source);  // "flat" | "sysfs" | "env"

struct TopologyStats {
  int cpus = 0;
  int nodes = 1;
  int source = 0;  // kTopologySource* code above
  bool weights_refined = false;  // online counters have taken over the seeds
  std::vector<TopologyClassStats> classes;

  bool asymmetric() const { return classes.size() > 1; }
};

using SchedulerStatsFn = SchedulerStats (*)();
using PanelCacheStatsFn = PanelCacheStats (*)();
using TuneStatsFn = TuneStats (*)();
using TopologyStatsFn = TopologyStats (*)();

/// Registers the process-wide scheduler / panel-cache snapshot source.
/// Called once by PersistentPool::instance() / PanelCache::instance();
/// later registrations overwrite (harmless: the sources are idempotent).
void set_scheduler_stats_source(SchedulerStatsFn fn);
void set_panel_cache_stats_source(PanelCacheStatsFn fn);
void set_tune_stats_source(TuneStatsFn fn);
void set_topology_stats_source(TopologyStatsFn fn);

bool scheduler_stats_available();
bool panel_cache_stats_available();
bool tune_stats_available();
bool topology_stats_available();

/// Snapshots through the registered source; default-constructed (empty)
/// when no source has registered yet.
SchedulerStats scheduler_stats();
PanelCacheStats panel_cache_stats();
TuneStats tune_stats();
TopologyStats topology_stats();

}  // namespace ag::obs
