// Keyed packed-B panel cache for the batch driver.
//
// Entries of one dgemm_batch call frequently share the same B operand
// (e.g. one weight matrix multiplied against a batch of activations).
// Packing B costs a full read + write of the panel, so tickets working on
// different row ranges (or different entries) of the same (B, kk, jj)
// panel should pack it once and share the result. The cache keys panels
// by the operand identity (pointer, leading dimension, transpose) plus
// the panel coordinates and blocking, and hands out shared ownership:
//
//   * The first ticket to request a key packs the panel; concurrent
//     requesters for the same key block (spin-then-wait) until the packer
//     publishes it, instead of packing duplicates.
//   * Panels live in shared_ptrs, so eviction and epoch invalidation
//     never free a panel still in use by an in-flight ticket.
//   * Capacity is ARMGEMM_PANEL_CACHE_MB (0 = caching off). Insertions
//     that cannot fit even after evicting everything are bypassed: the
//     caller packs into private scratch instead.
//
// Epoch invalidation guards the aliasing hazard: a caller may free or
// mutate B between two batch calls, and a later batch may present a
// different matrix at the same address. Every batch call starts a new
// epoch (the epoch is part of the key, and begin_epoch drops all map
// entries), so sharing is strictly within one batch call — the cache can
// never serve a panel packed from bytes B held in a previous call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "blas/gemm_types.hpp"
#include "common/aligned_buffer.hpp"
#include "obs/runtime_introspect.hpp"

namespace ag {

using index_t = std::int64_t;

/// Identity of one packed kc x nc panel of op(B) within one epoch.
/// `node` is the NUMA node the panel is replicated for: on multi-node
/// hosts, panels larger than ARMGEMM_PANEL_REPLICATE_KB are keyed by the
/// consuming node, so each node packs (and first-touches) its own copy
/// into node-local memory instead of all nodes streaming one remote
/// replica. Single-node hosts and small panels keep node = 0 — one
/// shared copy, exactly the pre-NUMA behavior.
struct PanelKey {
  const double* b = nullptr;
  index_t ldb = 0;
  Trans trans = Trans::NoTrans;
  index_t kk = 0, jj = 0;  // panel origin in op(B)
  index_t kc = 0, nc = 0;  // panel extent
  int nr = 0;              // sliver width the packed layout was built for
  int node = 0;            // consuming NUMA node (0 = unreplicated/shared)
  std::uint64_t epoch = 0;

  bool operator==(const PanelKey& o) const {
    return b == o.b && ldb == o.ldb && trans == o.trans && kk == o.kk && jj == o.jj &&
           kc == o.kc && nc == o.nc && nr == o.nr && node == o.node && epoch == o.epoch;
  }
};

struct PanelKeyHash {
  std::size_t operator()(const PanelKey& k) const {
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.b);
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.ldb));
    mix(k.trans == Trans::NoTrans ? 1u : 2u);
    mix(static_cast<std::uint64_t>(k.kk));
    mix(static_cast<std::uint64_t>(k.jj));
    mix(static_cast<std::uint64_t>(k.kc));
    mix(static_cast<std::uint64_t>(k.nc));
    mix(static_cast<std::uint64_t>(k.nr));
    mix(static_cast<std::uint64_t>(k.node));
    mix(k.epoch);
    return static_cast<std::size_t>(h);
  }
};

/// One shared packed panel. Readers must only touch data() after
/// get_or_pack returned it (publication implies readiness).
class PackedPanel {
 public:
  const double* data() const { return buf_.data(); }

 private:
  friend class PanelCache;
  AlignedBuffer<double> buf_;
  std::size_t bytes_ = 0;
  std::atomic<bool> ready_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

class PanelCache {
 public:
  PanelCache(const PanelCache&) = delete;
  PanelCache& operator=(const PanelCache&) = delete;

  /// The process-wide cache shared by every batch call.
  static PanelCache& instance();

  /// Snapshot type shared with the obs exposition (hits, misses, inserts,
  /// bypasses, evictions, wait stalls, residency, per-shape-class counts).
  using Stats = obs::PanelCacheStats;

  /// What one get_or_pack request turned into (for caller-side telemetry;
  /// the cache also counts these internally).
  enum class Outcome { kHit, kMiss, kBypass };

  /// Starts a new sharing epoch and drops every entry (in-flight users
  /// keep their panels alive through the returned shared_ptrs). Every
  /// batch call begins with this; tests use it as an explicit
  /// invalidation point. Returns the new epoch for use in keys.
  std::uint64_t begin_epoch();

  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Returns the shared panel for `key`, packing it via `pack(dst)` (dst
  /// holds `elems` doubles) if this is the first request. Returns nullptr
  /// when the cache is off or the panel cannot fit (caller packs into its
  /// private scratch). Blocks briefly when another thread is mid-pack for
  /// the same key. `shape_class` (obs::ShapeClass::index(); -1 = untagged)
  /// attributes the hit/miss to the requesting entry's shape class in the
  /// stats breakdown; `outcome`, when non-null, reports what the request
  /// turned into. `wait_seconds`, when non-null, accumulates the time this
  /// request spent stalled on another thread's mid-pack panel (the
  /// cache_stall phase of the requesting ticket's timeline).
  std::shared_ptr<const PackedPanel> get_or_pack(const PanelKey& key, index_t elems,
                                                 const std::function<void(double*)>& pack,
                                                 int shape_class = -1,
                                                 Outcome* outcome = nullptr,
                                                 double* wait_seconds = nullptr);

  Stats stats() const;
  void reset_stats();

 private:
  PanelCache() = default;

  struct ClassCounts {
    std::uint64_t hits = 0, misses = 0;
  };

  mutable std::mutex mutex_;
  std::unordered_map<PanelKey, std::shared_ptr<PackedPanel>, PanelKeyHash> map_;
  std::deque<PanelKey> order_;  // insertion order, for FIFO eviction
  std::size_t bytes_ = 0;       // sum of resident panels' bytes
  std::size_t peak_bytes_ = 0;  // high-water bytes_ (survives epochs/resets)
  std::map<int, ClassCounts> by_class_;  // keyed by shape class; guarded by mutex_
  std::atomic<std::uint64_t> epoch_{0};

  std::atomic<std::uint64_t> hits_{0}, misses_{0}, inserts_{0}, bypasses_{0},
      evictions_{0}, wait_stalls_{0}, wait_ns_{0}, epochs_{0}, node_replicas_{0};
};

}  // namespace ag
