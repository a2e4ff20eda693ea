#include "obs/pmu.hpp"

#include <atomic>
#include <cstring>
#include <sstream>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/knobs.hpp"
#include "common/timer.hpp"

namespace ag::obs {

void pmu_set_forced_fallback(bool forced) { set_knob(Knob::kPmu, !forced); }

bool pmu_forced_fallback() { return ag::detail::knob_bits(Knob::kPmu) == 0; }

const char* to_string(PmuEvent e) {
  switch (e) {
    case PmuEvent::kCycles: return "cycles";
    case PmuEvent::kInstructions: return "instructions";
    case PmuEvent::kL1dAccess: return "l1d_access";
    case PmuEvent::kL1dRefill: return "l1d_refill";
    case PmuEvent::kL2Refill: return "l2_refill";
    case PmuEvent::kStallCycles: return "stall_cycles";
    case PmuEvent::kBranchMisses: return "branch_misses";
    case PmuEvent::kTaskClockNs: return "task_clock_ns";
    case PmuEvent::kCount: break;
  }
  return "?";
}

const char* to_string(PmuSource s) {
  switch (s) {
    case PmuSource::kHardware: return "hw";
    case PmuSource::kSoftware: return "sw";
    case PmuSource::kSynthetic: return "syn";
    case PmuSource::kUnavailable: return "n/a";
  }
  return "?";
}

const char* to_string(PmuLayer l) {
  switch (l) {
    case PmuLayer::kTotal: return "total";
    case PmuLayer::kPackA: return "pack_a";
    case PmuLayer::kPackB: return "pack_b";
    case PmuLayer::kGebp: return "gebp";
    case PmuLayer::kBarrier: return "barrier";
    case PmuLayer::kSmall: return "small";
    case PmuLayer::kCount: break;
  }
  return "?";
}

PmuCounts& PmuCounts::operator+=(const PmuCounts& o) {
  for (int i = 0; i < kPmuEventCount; ++i) value[static_cast<std::size_t>(i)] +=
      o.value[static_cast<std::size_t>(i)];
  return *this;
}

PmuCounts PmuCounts::delta(const PmuCounts& begin, const PmuCounts& end) {
  PmuCounts d;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kPmuEventCount); ++i)
    d.value[i] = end.value[i] >= begin.value[i] ? end.value[i] - begin.value[i] : 0;
  return d;
}

double PmuCounts::ipc() const {
  const std::uint64_t c = (*this)[PmuEvent::kCycles];
  return c ? static_cast<double>((*this)[PmuEvent::kInstructions]) / static_cast<double>(c)
           : 0.0;
}

double PmuCounts::l1d_miss_rate() const {
  const std::uint64_t a = (*this)[PmuEvent::kL1dAccess];
  return a ? static_cast<double>((*this)[PmuEvent::kL1dRefill]) / static_cast<double>(a)
           : 0.0;
}

double PmuCounts::stall_fraction() const {
  const std::uint64_t c = (*this)[PmuEvent::kCycles];
  return c ? static_cast<double>((*this)[PmuEvent::kStallCycles]) / static_cast<double>(c)
           : 0.0;
}

// ---------------------------------------------------------------------------
// PmuGroup
// ---------------------------------------------------------------------------

#ifdef __linux__

namespace {

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
  bool software;
};

// The generic perf events closest to the ARMv8 PMU events the paper
// reads (L1D_CACHE / L1D_CACHE_REFILL / L2D_CACHE_REFILL); the kernel
// maps them back to the native PMU on both ARM and x86.
EventSpec event_spec(PmuEvent e) {
  const auto cache = [](std::uint64_t id, std::uint64_t result) {
    return id | (PERF_COUNT_HW_CACHE_OP_READ << 8) | (result << 16);
  };
  switch (e) {
    case PmuEvent::kCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, false};
    case PmuEvent::kInstructions:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, false};
    case PmuEvent::kL1dAccess:
      return {PERF_TYPE_HW_CACHE,
              cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_RESULT_ACCESS), false};
    case PmuEvent::kL1dRefill:
      return {PERF_TYPE_HW_CACHE,
              cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_RESULT_MISS), false};
    case PmuEvent::kL2Refill:
      return {PERF_TYPE_HW_CACHE,
              cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_RESULT_MISS), false};
    case PmuEvent::kStallCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND, false};
    case PmuEvent::kBranchMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, false};
    default:
      return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, true};
  }
}

int open_event(PmuEvent e) {
  const EventSpec spec = event_spec(e);
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = spec.type;
  attr.size = sizeof(attr);
  attr.config = spec.config;
  attr.disabled = 0;  // count from open; regions take deltas
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, any CPU it runs on.
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

std::uint64_t read_scaled(int fd) {
  std::uint64_t buf[3] = {0, 0, 0};  // value, time_enabled, time_running
  if (::read(fd, buf, sizeof(buf)) != static_cast<ssize_t>(sizeof(buf))) return 0;
  if (buf[2] > 0 && buf[2] < buf[1]) {
    const double scale = static_cast<double>(buf[1]) / static_cast<double>(buf[2]);
    return static_cast<std::uint64_t>(static_cast<double>(buf[0]) * scale);
  }
  return buf[0];
}

}  // namespace

bool PmuGroup::open() {
  close();
  open_ = true;
  wall_epoch_ns_ = now_ns();
  if (pmu_forced_fallback()) {
    events_[static_cast<int>(PmuEvent::kCycles)].source = PmuSource::kSynthetic;
    return false;
  }
  for (int i = 0; i < kPmuEventCount; ++i) {
    const PmuEvent e = static_cast<PmuEvent>(i);
    const int fd = open_event(e);
    if (fd >= 0) {
      events_[i].fd = fd;
      events_[i].source =
          event_spec(e).software ? PmuSource::kSoftware : PmuSource::kHardware;
      if (events_[i].source == PmuSource::kHardware) any_hw_ = true;
    }
  }
  if (events_[static_cast<int>(PmuEvent::kCycles)].fd < 0)
    events_[static_cast<int>(PmuEvent::kCycles)].source = PmuSource::kSynthetic;
  return any_hw_;
}

void PmuGroup::close() {
  for (auto& s : events_) {
    if (s.fd >= 0) ::close(s.fd);
    s.fd = -1;
    s.source = PmuSource::kUnavailable;
  }
  open_ = false;
  any_hw_ = false;
}

PmuCounts PmuGroup::read() const {
  PmuCounts c;
  if (!open_) return c;
  for (int i = 0; i < kPmuEventCount; ++i)
    if (events_[static_cast<std::size_t>(i)].fd >= 0)
      c.value[static_cast<std::size_t>(i)] =
          read_scaled(events_[static_cast<std::size_t>(i)].fd);
  // Synthetic cycles: prefer on-CPU nanoseconds (task clock), fall back to
  // wall nanoseconds. Either way 1 "cycle" == 1 ns, flagged kSynthetic.
  if (events_[static_cast<int>(PmuEvent::kCycles)].fd < 0)
    c[PmuEvent::kCycles] = events_[static_cast<int>(PmuEvent::kTaskClockNs)].fd >= 0
                               ? c[PmuEvent::kTaskClockNs]
                               : now_ns() - wall_epoch_ns_;
  return c;
}

bool PmuGroup::hardware_available() {
  if (pmu_forced_fallback()) return false;
  const int fd = open_event(PmuEvent::kCycles);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

#else  // !__linux__

bool PmuGroup::open() {
  close();
  open_ = true;
  wall_epoch_ns_ = now_ns();
  events_[static_cast<int>(PmuEvent::kCycles)].source = PmuSource::kSynthetic;
  return false;
}

void PmuGroup::close() {
  for (auto& s : events_) {
    s.fd = -1;
    s.source = PmuSource::kUnavailable;
  }
  open_ = false;
  any_hw_ = false;
}

PmuCounts PmuGroup::read() const {
  PmuCounts c;
  if (open_) c[PmuEvent::kCycles] = now_ns() - wall_epoch_ns_;
  return c;
}

bool PmuGroup::hardware_available() { return false; }

#endif  // __linux__

PmuGroup::~PmuGroup() { close(); }

// ---------------------------------------------------------------------------
// PmuCollector
// ---------------------------------------------------------------------------

PmuCollector::PmuCollector(int max_threads) {
  const int n = max_threads < 1 ? 1 : max_threads;
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ranks_.push_back(std::make_unique<RankState>());
}

PmuCollector::~PmuCollector() = default;

PmuCollector::RankState& PmuCollector::rank(int r) {
  std::size_t i = r < 0 ? 0 : static_cast<std::size_t>(r);
  if (i >= ranks_.size()) i = ranks_.size() - 1;
  return *ranks_[i];
}

const PmuCollector::RankState& PmuCollector::rank(int r) const {
  return const_cast<PmuCollector*>(this)->rank(r);
}

PmuCounts PmuCollector::layer_totals(PmuLayer layer) const {
  PmuCounts t;
  for (const auto& rs : ranks_) {
    std::lock_guard lock(rs->mutex);
    for (std::size_t e = 0; e < static_cast<std::size_t>(kPmuEventCount); ++e)
      t.value[e] += rs->accum[static_cast<std::size_t>(layer)][e];
  }
  return t;
}

std::uint64_t PmuCollector::layer_regions(PmuLayer layer) const {
  std::uint64_t n = 0;
  for (const auto& rs : ranks_) {
    std::lock_guard lock(rs->mutex);
    n += rs->regions[static_cast<std::size_t>(layer)];
  }
  return n;
}

PmuCounts PmuCollector::rank_layer_totals(int r, PmuLayer layer) const {
  const RankState& rs = rank(r);
  std::lock_guard lock(rs.mutex);
  PmuCounts t;
  for (std::size_t e = 0; e < static_cast<std::size_t>(kPmuEventCount); ++e)
    t.value[e] = rs.accum[static_cast<std::size_t>(layer)][e];
  return t;
}

std::array<PmuSource, kPmuEventCount> PmuCollector::sources() const {
  std::array<PmuSource, kPmuEventCount> best;
  best.fill(PmuSource::kUnavailable);
  bool any_opened = false;
  for (const auto& rs : ranks_) {
    std::lock_guard lock(rs->mutex);
    if (!rs->ever_opened) continue;
    any_opened = true;
    for (int e = 0; e < kPmuEventCount; ++e) {
      const PmuSource s = rs->group.source(static_cast<PmuEvent>(e));
      if (static_cast<int>(s) < static_cast<int>(best[static_cast<std::size_t>(e)]))
        best[static_cast<std::size_t>(e)] = s;
    }
  }
  if (!any_opened) {
    // Nothing recorded yet: report what a group opened now would get.
    const bool hw = PmuGroup::hardware_available();
    best[static_cast<int>(PmuEvent::kCycles)] =
        hw ? PmuSource::kHardware : PmuSource::kSynthetic;
  }
  return best;
}

bool PmuCollector::any_hardware() const {
  for (const auto& rs : ranks_) {
    std::lock_guard lock(rs->mutex);
    if (rs->ever_opened && rs->group.any_hardware()) return true;
  }
  return false;
}

std::uint64_t PmuCollector::discarded_regions() const {
  std::uint64_t n = 0;
  for (const auto& rs : ranks_) {
    std::lock_guard lock(rs->mutex);
    n += rs->discarded;
  }
  return n;
}

void PmuCollector::reset() {
  for (auto& rs : ranks_) {
    std::lock_guard lock(rs->mutex);
    for (auto& layer : rs->accum) layer.fill(0);
    rs->regions.fill(0);
    rs->discarded = 0;
  }
}

std::string PmuCollector::to_json() const {
  std::ostringstream os;
  const auto src = sources();
  os << "{\"available\":" << (any_hardware() ? "true" : "false")
     << ",\"forced_fallback\":" << (pmu_forced_fallback() ? "true" : "false")
     << ",\"discarded_regions\":" << discarded_regions() << ",\"events\":{";
  for (int e = 0; e < kPmuEventCount; ++e) {
    if (e) os << ",";
    os << "\"" << to_string(static_cast<PmuEvent>(e)) << "\":\""
       << to_string(src[static_cast<std::size_t>(e)]) << "\"";
  }
  os << "},\"layers\":{";
  for (int l = 0; l < kPmuLayerCount; ++l) {
    if (l) os << ",";
    const PmuLayer layer = static_cast<PmuLayer>(l);
    const PmuCounts t = layer_totals(layer);
    os << "\"" << to_string(layer) << "\":{\"regions\":" << layer_regions(layer);
    for (int e = 0; e < kPmuEventCount; ++e)
      os << ",\"" << to_string(static_cast<PmuEvent>(e))
         << "\":" << t.value[static_cast<std::size_t>(e)];
    os << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace ag::obs
