#include "obs/gemm_stats.hpp"

#include <sstream>
#include <thread>

namespace ag::obs {

namespace {

void json_field(std::ostream& os, const char* key, double v, bool& first) {
  if (!first) os << ",";
  first = false;
  os << "\"" << key << "\":" << v;
}

void json_field(std::ostream& os, const char* key, std::uint64_t v, bool& first) {
  if (!first) os << ",";
  first = false;
  os << "\"" << key << "\":" << v;
}

}  // namespace

void atomic_add(std::atomic<double>& acc, double v) {
  double cur = acc.load(std::memory_order_relaxed);
  while (!acc.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  gemm_calls += o.gemm_calls;
  pack_a_calls += o.pack_a_calls;
  pack_b_calls += o.pack_b_calls;
  gebp_calls += o.gebp_calls;
  kernel_calls += o.kernel_calls;
  small_calls += o.small_calls;
  pack_a_bytes += o.pack_a_bytes;
  pack_b_bytes += o.pack_b_bytes;
  c_bytes += o.c_bytes;
  pack_a_seconds += o.pack_a_seconds;
  pack_b_seconds += o.pack_b_seconds;
  gebp_seconds += o.gebp_seconds;
  small_seconds += o.small_seconds;
  barrier_seconds += o.barrier_seconds;
  total_seconds += o.total_seconds;
  flops += o.flops;
  return *this;
}

double LayerCounters::gamma() const {
  const double words = total_bytes() / 8.0;
  return words > 0 ? flops / words : 0.0;
}

double LayerCounters::gflops() const {
  return total_seconds > 0 ? flops / total_seconds * 1e-9 : 0.0;
}

double LayerCounters::other_seconds() const {
  const double accounted =
      pack_a_seconds + pack_b_seconds + gebp_seconds + small_seconds + barrier_seconds;
  return total_seconds > accounted ? total_seconds - accounted : 0.0;
}

std::string LayerCounters::to_json() const {
  std::ostringstream os;
  os.precision(9);
  bool first = true;
  os << "{";
  json_field(os, "gemm_calls", gemm_calls, first);
  json_field(os, "pack_a_calls", pack_a_calls, first);
  json_field(os, "pack_b_calls", pack_b_calls, first);
  json_field(os, "gebp_calls", gebp_calls, first);
  json_field(os, "kernel_calls", kernel_calls, first);
  json_field(os, "small_calls", small_calls, first);
  json_field(os, "pack_a_bytes", pack_a_bytes, first);
  json_field(os, "pack_b_bytes", pack_b_bytes, first);
  json_field(os, "c_bytes", c_bytes, first);
  json_field(os, "pack_a_seconds", pack_a_seconds, first);
  json_field(os, "pack_b_seconds", pack_b_seconds, first);
  json_field(os, "gebp_seconds", gebp_seconds, first);
  json_field(os, "small_seconds", small_seconds, first);
  json_field(os, "barrier_seconds", barrier_seconds, first);
  json_field(os, "total_seconds", total_seconds, first);
  json_field(os, "flops", flops, first);
  json_field(os, "gflops", gflops(), first);
  json_field(os, "gamma", gamma(), first);
  os << "}";
  return os.str();
}

namespace {

/// Seqlock write section for one ThreadSlot update. The version is taken
/// by a CAS from even to odd, so writers sharing a slot (every C API
/// caller records into slot 0) hold it one at a time, and a reader that
/// sees the same even version before and after its loads really saw no
/// write in between. The acquire CAS orders this section after the
/// previous one; the fence orders the odd version before the (relaxed)
/// field updates; the release store at the end orders the updates before
/// the even version a reader validates against.
class SlotWrite {
 public:
  explicit SlotWrite(std::atomic<std::uint64_t>& version) : version_(version) {
    std::uint64_t v = version_.load(std::memory_order_relaxed);
    for (;;) {
      if (v & 1) {
        std::this_thread::yield();
        v = version_.load(std::memory_order_relaxed);
      } else if (version_.compare_exchange_weak(v, v + 1, std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
        break;
      }
    }
    held_ = v + 1;
    std::atomic_thread_fence(std::memory_order_release);
  }
  ~SlotWrite() { version_.store(held_ + 1, std::memory_order_release); }

  SlotWrite(const SlotWrite&) = delete;
  SlotWrite& operator=(const SlotWrite&) = delete;

 private:
  std::atomic<std::uint64_t>& version_;
  std::uint64_t held_ = 0;  // the odd version this section published
};

}  // namespace

void ThreadSlot::add(const Counters& into, double seconds, const Work& work) {
  SlotWrite write(version);
  if (into.calls) (this->*into.calls).fetch_add(1, std::memory_order_relaxed);
  if (into.bytes) (this->*into.bytes).fetch_add(work.bytes, std::memory_order_relaxed);
  if (work.kernels) kernel_calls.fetch_add(work.kernels, std::memory_order_relaxed);
  if (work.flops != 0) atomic_add(flops, work.flops);
  atomic_add(this->*into.seconds, seconds);
}

LayerCounters ThreadSlot::snapshot() const {
  // Seqlock read: retry while a writer is mid-update (odd version) or a
  // write completed between the two version loads. A write section is a
  // handful of relaxed adds, so the retry is unbounded: yield and read
  // again rather than ever return a torn snapshot.
  LayerCounters c;
  for (;; std::this_thread::yield()) {
    const std::uint64_t v0 = version.load(std::memory_order_acquire);
    if (v0 & 1) continue;
    c.gemm_calls = gemm_calls.load(std::memory_order_relaxed);
    c.pack_a_calls = pack_a_calls.load(std::memory_order_relaxed);
    c.pack_b_calls = pack_b_calls.load(std::memory_order_relaxed);
    c.gebp_calls = gebp_calls.load(std::memory_order_relaxed);
    c.kernel_calls = kernel_calls.load(std::memory_order_relaxed);
    c.small_calls = small_calls.load(std::memory_order_relaxed);
    c.pack_a_bytes = pack_a_bytes.load(std::memory_order_relaxed);
    c.pack_b_bytes = pack_b_bytes.load(std::memory_order_relaxed);
    c.c_bytes = c_bytes.load(std::memory_order_relaxed);
    c.pack_a_seconds = pack_a_seconds.load(std::memory_order_relaxed);
    c.pack_b_seconds = pack_b_seconds.load(std::memory_order_relaxed);
    c.gebp_seconds = gebp_seconds.load(std::memory_order_relaxed);
    c.small_seconds = small_seconds.load(std::memory_order_relaxed);
    c.barrier_seconds = barrier_seconds.load(std::memory_order_relaxed);
    c.total_seconds = total_seconds.load(std::memory_order_relaxed);
    c.flops = flops.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (version.load(std::memory_order_relaxed) == v0) return c;
  }
}

void ThreadSlot::reset() {
  SlotWrite write(version);
  gemm_calls.store(0, std::memory_order_relaxed);
  pack_a_calls.store(0, std::memory_order_relaxed);
  pack_b_calls.store(0, std::memory_order_relaxed);
  gebp_calls.store(0, std::memory_order_relaxed);
  kernel_calls.store(0, std::memory_order_relaxed);
  small_calls.store(0, std::memory_order_relaxed);
  pack_a_bytes.store(0, std::memory_order_relaxed);
  pack_b_bytes.store(0, std::memory_order_relaxed);
  c_bytes.store(0, std::memory_order_relaxed);
  pack_a_seconds.store(0, std::memory_order_relaxed);
  pack_b_seconds.store(0, std::memory_order_relaxed);
  gebp_seconds.store(0, std::memory_order_relaxed);
  small_seconds.store(0, std::memory_order_relaxed);
  barrier_seconds.store(0, std::memory_order_relaxed);
  total_seconds.store(0, std::memory_order_relaxed);
  flops.store(0, std::memory_order_relaxed);
}

GemmStats::GemmStats(int max_threads)
    : slots_(static_cast<std::size_t>(max_threads < 1 ? 1 : max_threads)) {}

ThreadSlot& GemmStats::slot(int rank) {
  std::size_t i = rank < 0 ? 0 : static_cast<std::size_t>(rank);
  if (i >= slots_.size()) i = slots_.size() - 1;
  return slots_[i];
}

void GemmStats::reset() {
  for (auto& s : slots_) s.reset();
}

LayerCounters GemmStats::totals() const {
  LayerCounters t;
  for (const auto& s : slots_) t += s.snapshot();
  return t;
}

std::vector<LayerCounters> GemmStats::per_thread() const {
  std::vector<LayerCounters> out;
  for (const auto& s : slots_) {
    LayerCounters c = s.snapshot();
    if (c.gemm_calls || c.pack_a_calls || c.pack_b_calls || c.gebp_calls ||
        c.small_calls || c.barrier_seconds > 0)
      out.push_back(c);
  }
  return out;
}

std::string GemmStats::to_json() const {
  std::ostringstream os;
  os << "{\"totals\":" << totals().to_json() << ",\"threads\":[";
  const auto threads = per_thread();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (i) os << ",";
    os << threads[i].to_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace ag::obs
