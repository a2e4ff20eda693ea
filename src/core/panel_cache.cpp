#include "core/panel_cache.hpp"

#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "threading/spin.hpp"

namespace ag {

PanelCache& PanelCache::instance() {
  // Leaky singleton: in-flight batch workers may hold panels during
  // static destruction. The obs snapshot source registers here (once,
  // under the magic-static guard) because obs cannot link back to core.
  static PanelCache* cache = [] {
    auto* c = new PanelCache;
    obs::set_panel_cache_stats_source(
        +[] { return PanelCache::instance().stats(); });
    return c;
  }();
  return *cache;
}

std::uint64_t PanelCache::begin_epoch() {
  epochs_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  map_.clear();
  order_.clear();
  bytes_ = 0;
  return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::shared_ptr<const PackedPanel> PanelCache::get_or_pack(
    const PanelKey& key, index_t elems, const std::function<void(double*)>& pack,
    int shape_class, Outcome* outcome, double* wait_seconds) {
  const std::int64_t cap_mb = panel_cache_mb();
  if (cap_mb <= 0 || elems <= 0) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    if (outcome) *outcome = Outcome::kBypass;
    return nullptr;
  }
  const std::size_t cap = static_cast<std::size_t>(cap_mb) << 20;
  const std::size_t bytes = static_cast<std::size_t>(elems) * sizeof(double);

  std::shared_ptr<PackedPanel> panel;
  bool packer = false;
  {
    std::lock_guard lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      panel = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      by_class_[shape_class].hits++;
    } else {
      if (bytes > cap) {
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        if (outcome) *outcome = Outcome::kBypass;
        return nullptr;
      }
      // FIFO-evict until the new panel fits. Evicting a panel mid-pack is
      // fine: its packer and waiters hold shared_ptrs, so it completes and
      // is consumed — it just stops being shareable by later requests.
      while (bytes_ + bytes > cap && !order_.empty()) {
        auto victim = map_.find(order_.front());
        order_.pop_front();
        if (victim == map_.end()) continue;  // already dropped by an epoch
        bytes_ -= victim->second->bytes_;
        map_.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      if (bytes_ + bytes > cap) {
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        if (outcome) *outcome = Outcome::kBypass;
        return nullptr;
      }
      panel = std::make_shared<PackedPanel>();
      panel->bytes_ = bytes;
      bytes_ += bytes;
      if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
      map_.emplace(key, panel);
      order_.push_back(key);
      misses_.fetch_add(1, std::memory_order_relaxed);
      by_class_[shape_class].misses++;
      // A node-keyed insert is a NUMA replica: the packer runs on that
      // node, so the pack below first-touches node-local pages.
      if (key.node > 0) node_replicas_.fetch_add(1, std::memory_order_relaxed);
      packer = true;
    }
  }

  if (packer) {
    // Allocate and pack outside the map lock: other keys proceed in
    // parallel, and same-key requesters wait on this panel only.
    panel->buf_.ensure(static_cast<std::size_t>(elems));
    pack(panel->buf_.data());
    panel->ready_.store(true, std::memory_order_release);
    // The empty critical section pairs with the waiter's predicate check.
    { std::lock_guard lock(panel->mutex_); }
    panel->cv_.notify_all();
    inserts_.fetch_add(1, std::memory_order_relaxed);
    if (outcome) *outcome = Outcome::kMiss;
    return panel;
  }

  if (!panel->ready_.load(std::memory_order_acquire)) {
    // A hit on a panel still mid-pack: the wait is time this ticket spends
    // stalled on another thread's packing (counted so operators can see
    // pack contention as distinct from clean hits).
    const std::uint64_t wait_start = now_ns();
    wait_stalls_.fetch_add(1, std::memory_order_relaxed);
    SpinWait spinner;
    while (!panel->ready_.load(std::memory_order_acquire)) {
      if (!spinner.spin()) {
        std::unique_lock lock(panel->mutex_);
        panel->cv_.wait(lock, [&] {
          return panel->ready_.load(std::memory_order_acquire);
        });
        break;
      }
    }
    const std::uint64_t waited = now_ns() - wait_start;
    wait_ns_.fetch_add(waited, std::memory_order_relaxed);
    if (wait_seconds) *wait_seconds += static_cast<double>(waited) * 1e-9;
  }
  if (outcome) *outcome = Outcome::kHit;
  return panel;
}

PanelCache::Stats PanelCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.wait_stalls = wait_stalls_.load(std::memory_order_relaxed);
  s.wait_seconds =
      static_cast<double>(wait_ns_.load(std::memory_order_relaxed)) * 1e-9;
  s.epochs = epochs_.load(std::memory_order_relaxed);
  s.node_replicas = node_replicas_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    s.resident_bytes = static_cast<std::uint64_t>(bytes_);
    s.peak_bytes = static_cast<std::uint64_t>(peak_bytes_);
    s.resident_panels = static_cast<std::uint64_t>(map_.size());
    s.by_class.reserve(by_class_.size());
    for (const auto& [cls, counts] : by_class_) {
      Stats::ClassStats c;
      c.shape_class = cls;
      c.hits = counts.hits;
      c.misses = counts.misses;
      s.by_class.push_back(c);
    }
  }
  return s;
}

void PanelCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
  bypasses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  wait_stalls_.store(0, std::memory_order_relaxed);
  wait_ns_.store(0, std::memory_order_relaxed);
  epochs_.store(0, std::memory_order_relaxed);
  node_replicas_.store(0, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  by_class_.clear();
  peak_bytes_ = bytes_;
}

}  // namespace ag
