#include "obs/region.hpp"

#include <mutex>
#include <thread>

namespace ag::obs {

void Region::pmu_begin() {
  PmuCollector::RankState& rs = sinks_->stats->pmu()->rank(sinks_->lane);
  std::lock_guard lock(rs.mutex);
  // Counter groups attach to the opening thread: (re)open whenever a new
  // thread records under this rank so the values measure *this* thread.
  if (!rs.group.is_open() || rs.owner != std::this_thread::get_id()) {
    rs.group.open();
    rs.owner = std::this_thread::get_id();
    rs.ever_opened = true;
    ++rs.generation;
  }
  detail_->pmu_generation = rs.generation;
  detail_->pmu_begin = rs.group.read();
}

void Region::record(const Interval& iv) {
  const Detail& d = *detail_;
  const BoundarySinks& row = sinks_of(at_);
  GemmStats& stats = *sinks_->stats;
  const int lane = sinks_->lane;
  if (row.stats.seconds) stats.slot(lane).add(row.stats, iv.seconds, d.work);
  if (Tracer* tracer = stats.tracer())
    tracer->record(lane, row.span, static_cast<double>(t0_) * 1e-9, iv.seconds, d.args);
  PmuCollector* const pmu = stats.pmu();
  if (row.pmu == kNoPmuLayer || pmu == nullptr || d.pmu_generation == 0) return;
  PmuCollector::RankState& rs = pmu->rank(lane);
  std::lock_guard lock(rs.mutex);
  if (rs.generation != d.pmu_generation) {
    // The group was reopened (another thread recorded under this rank)
    // while this region was live; its delta would mix two threads.
    ++rs.discarded;
    return;
  }
  const PmuCounts delta = PmuCounts::delta(d.pmu_begin, rs.group.read());
  auto& acc = rs.accum[static_cast<std::size_t>(row.pmu)];
  for (std::size_t e = 0; e < static_cast<std::size_t>(kPmuEventCount); ++e)
    acc[e] += delta.value[e];
  ++rs.regions[static_cast<std::size_t>(row.pmu)];
}

}  // namespace ag::obs
