#include "obs/calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>

#if !defined(_WIN32)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/timer.hpp"
#include "obs/pmu.hpp"

namespace ag::obs {

namespace {

// Keeps a value opaque to the optimizer, so the calibration loops cannot
// be folded away: the empty asm reads and may write `v` in memory, so the
// compiler must store it first and reload it after. Called outside the
// timed loops (a volatile store per iteration would perturb them). The
// operand is memory-only on purpose: with the two-alternative "+m,r",
// GCC 12.2 at -O3 picked the memory form but dropped the stores of the
// FMA probes' x and y, which then read whatever an earlier frame had
// left in those stack slots.
template <typename T>
inline void keep(T& v) {
#if defined(__GNUC__)  // GCC and Clang
  asm volatile("" : "+m"(v) : : "memory");
#else
  volatile T sink = v;
  (void)sink;
#endif
}

// Probe clock: on-CPU seconds from the perf software task clock when the
// kernel grants one, wall seconds otherwise. On shared or virtualized
// hosts the vCPU can be descheduled or duty-cycle throttled for long
// stretches; wall-clock timing then under-reports compute throughput by
// orders of magnitude while the task clock (which is only charged while
// the thread actually runs) keeps measuring the silicon.
class ProbeClock {
 public:
  ProbeClock() {
    group_.open();
    use_task_clock_ =
        group_.source(PmuEvent::kTaskClockNs) != PmuSource::kUnavailable;
  }
  double now() {
    if (use_task_clock_)
      return static_cast<double>(group_.read()[PmuEvent::kTaskClockNs]) * 1e-9;
    return wall_.seconds();
  }

 private:
  PmuGroup group_;
  Timer wall_;
  bool use_task_clock_ = false;
};

// Runs `body(iters)` with geometrically growing iteration counts until it
// consumes at least `budget` seconds, then returns (seconds, iters) of the
// final, dominant run — the standard auto-ranging of micro-benchmarks. A
// run shorter than 50 µs grows the count at most 10x; a longer one times
// the body well enough to aim the next run straight at 1.4x the budget.
template <typename Body>
std::pair<double, std::int64_t> auto_range(double budget, std::int64_t start, Body&& body) {
  ProbeClock clock;
  std::int64_t iters = start;
  for (;;) {
    const double t0 = clock.now();
    body(iters);
    const double s = clock.now() - t0;
    if (s >= budget || iters > (1ll << 40)) return {s, iters};
    const double aim = s > 1e-6 ? 1.4 * budget / s : 10.0;
    const double grow = s >= 5e-5 ? aim : std::min(10.0, aim);
    iters = static_cast<std::int64_t>(static_cast<double>(iters) * grow) + 1;
  }
}

constexpr int kUnroll = 8;  // FMAs per chain per loop trip

// The chain count must be a compile-time constant: with a runtime count
// the accumulator array stays in memory and the probe measures a
// store-to-load latency chain, not the FMA pipes. A constant-trip inner
// loop vectorizes and register-allocates, so the probe reaches the SIMD
// peak (the mu the paper's Eq. (1) means).
template <int kChains>
void fma_throughput_body_t(std::int64_t trips, double* out) {
  double acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = 1.0 + 1e-9 * i;
  double x = 1.0000001, y = 0.9999999;
  keep(x);
  keep(y);
  for (std::int64_t t = 0; t < trips; ++t)
    for (int u = 0; u < kUnroll; ++u)
      for (int i = 0; i < kChains; ++i) acc[i] = std::fma(acc[i], x, y);
  double sum = 0;
  for (int i = 0; i < kChains; ++i) sum += acc[i];
  *out = sum;
  keep(*out);
}

// Rounds the requested chain count to an instantiated power of two.
int fma_chains_used(int requested) {
  if (requested <= 8) return 8;
  if (requested <= 16) return 16;
  if (requested <= 32) return 32;
  return 64;
}

void fma_throughput_body(std::int64_t trips, int chains, double* out) {
  switch (fma_chains_used(chains)) {
    case 8: return fma_throughput_body_t<8>(trips, out);
    case 16: return fma_throughput_body_t<16>(trips, out);
    case 32: return fma_throughput_body_t<32>(trips, out);
    default: return fma_throughput_body_t<64>(trips, out);
  }
}

void fma_latency_body(std::int64_t trips, double* out) {
  // One chain: every FMA consumes the previous result, so the measured
  // time per FMA is the result latency, not the throughput.
  double acc = 1.0;
  double x = 1.0000001, y = 0.9999999;
  keep(x);
  keep(y);
  for (std::int64_t t = 0; t < trips; ++t)
    for (int u = 0; u < kUnroll; ++u) acc = std::fma(acc, x, y);
  *out = acc;
  keep(*out);
}

}  // namespace

// CPU-bound probes take the best over repeated attempts: a transiently
// slow window on a shared or virtualized host then costs one attempt,
// not the peak. One loop shape suffices: a 64-chain variant (which spills
// accumulators) read within noise of the 32-chain loop over 24 fresh
// processes on a 4-vCPU x86-64 KVM guest.
constexpr int kProbeAttempts = 2;

double measure_fma_throughput(const CalibrationOptions& opts) {
  double sink = 0;
  double best = 1e300;
  const int chains = fma_chains_used(std::max(1, opts.fma_chains));
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    const auto [secs, trips] = auto_range(opts.seconds_per_probe, 1024, [&](std::int64_t n) {
      fma_throughput_body(n, chains, &sink);
    });
    const double flops = 2.0 * static_cast<double>(trips) * kUnroll * chains;
    best = std::min(best, secs / flops);
  }
  return best;
}

double measure_fma_latency(const CalibrationOptions& opts) {
  double sink = 0;
  double best = 1e300;
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    const auto [secs, trips] = auto_range(opts.seconds_per_probe, 1024, [&](std::int64_t n) {
      fma_latency_body(n, &sink);
    });
    const double flops = 2.0 * static_cast<double>(trips) * kUnroll;
    best = std::min(best, secs / flops);
  }
  return best;
}

namespace {

struct alignas(64) Line {
  const Line* next;
};

// The pointer-chase and overlap footprint, allocated once per calibration
// and reused: the chase links it into cache lines, then the overlap probe
// streams it as doubles. malloc-family storage, so either view holds
// valid objects (C++20 implicit object creation) and no zeroing pass runs.
class ProbeBuffer {
 public:
  explicit ProbeBuffer(std::size_t bytes)
      : bytes_((bytes + 63) / 64 * 64), p_(std::aligned_alloc(64, bytes_)) {
    if (p_ == nullptr) throw std::bad_alloc();
#if defined(MADV_POPULATE_WRITE)
    // Fault the pages in with one call rather than one trap per page:
    // the same zeroed pages, in about half the time on a 4-vCPU x86-64
    // KVM guest. A kernel without the advice refuses it and the probes
    // fault them in as they go.
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto begin = (reinterpret_cast<std::uintptr_t>(p_) + page - 1) / page * page;
    const auto end = (reinterpret_cast<std::uintptr_t>(p_) + bytes_) / page * page;
    if (end > begin) madvise(reinterpret_cast<void*>(begin), end - begin, MADV_POPULATE_WRITE);
#endif
  }
  ~ProbeBuffer() { std::free(p_); }
  ProbeBuffer(const ProbeBuffer&) = delete;
  ProbeBuffer& operator=(const ProbeBuffer&) = delete;

  double* doubles() { return static_cast<double*>(p_); }
  Line* lines() { return static_cast<Line*>(p_); }

 private:
  std::size_t bytes_;
  void* p_;
};

std::int64_t chase_lines(const CalibrationOptions& opts) {
  return std::max<std::int64_t>(1024, opts.memory_bytes / 64);
}

std::int64_t stream_elems(const CalibrationOptions& opts) {
  return std::max<std::int64_t>(1 << 16, opts.memory_bytes / 16);
}

// A fixed pseudo-random bijection on [0, n): odd multiplies and xor-shifts,
// each invertible modulo the next power of two, reapplied to a value past
// n until it lands in [0, n) (cycle walking keeps the map a bijection).
class LineOrder {
 public:
  explicit LineOrder(std::uint64_t n)
      : n_(n),
        mask_(std::bit_ceil(n) - 1),
        shift_((std::bit_width(mask_) + 1) / 2) {}

  std::uint64_t operator()(std::uint64_t x) const {
    do {
      x = (x * 0x9E3779B97F4A7C15ull) & mask_;
      x ^= x >> shift_;
      x = (x * 0xBF58476D1CE4E5B9ull) & mask_;
      x ^= x >> shift_;
      x = (x * 0x94D049BB133111EBull) & mask_;
      x ^= x >> shift_;
    } while (x >= n_);
    return x;
  }

 private:
  std::uint64_t n_, mask_;
  int shift_;
};

// Seconds per dependent load. One pointer per cache line, linked into a
// single pseudo-random cycle: each load's address depends on the previous
// load's value, defeating both the prefetchers and the out-of-order
// window. The link pass writes the lines in walk order with no order
// array, and the walk starts at the first line written, so every load
// meets a line last touched a whole footprint of lines ago. The walk is
// bounded by the probe budget, not by the footprint.
double chase_seconds_per_load(Line* chain, std::int64_t lines, double budget) {
  const LineOrder order(static_cast<std::uint64_t>(lines));
  const std::uint64_t first = order(0);
  std::uint64_t cur = first;
  for (std::int64_t i = 1; i < lines; ++i) {
    const std::uint64_t nxt = order(static_cast<std::uint64_t>(i));
    chain[cur].next = &chain[nxt];
    cur = nxt;
  }
  chain[cur].next = &chain[first];

  const Line* p = &chain[first];
  const auto [secs, loads] =
      auto_range(budget, std::min<std::int64_t>(lines, 4096), [&](std::int64_t n) {
        for (std::int64_t i = 0; i < n; ++i) p = p->next;
        keep(p);
      });
  return secs / static_cast<double>(loads);
}

// Two out-of-cache streams through FMAs: per element 2 words move and 2
// flops retire, so gamma = 1 (Eq. 2). Returns the unhidden memory
// fraction.
double overlap_psi(double* a, double* b, std::int64_t elems, double budget) {
  std::fill(a, a + elems, 1.0000001);
  std::fill(b, b + elems, 0.9999999);

  double sink = 0;
  const auto timed_passes = [&](auto&& pass) {
    return auto_range(budget, 1, [&](std::int64_t n) {
      for (std::int64_t i = 0; i < n; ++i) pass();
      keep(sink);
    });
  };

  const auto [both_s, both_n] = timed_passes([&] {
    double acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    for (std::int64_t i = 0; i + 3 < elems; i += 4) {
      acc0 = std::fma(a[i], b[i], acc0);
      acc1 = std::fma(a[i + 1], b[i + 1], acc1);
      acc2 = std::fma(a[i + 2], b[i + 2], acc2);
      acc3 = std::fma(a[i + 3], b[i + 3], acc3);
    }
    sink = acc0 + acc1 + acc2 + acc3;
  });
  const auto [mem_s, mem_n] = timed_passes([&] {
    // Same traffic, no arithmetic: one 64-bit load per word, summed with
    // cheap adds (the adds overlap the loads completely).
    double s0 = 0, s1 = 0;
    for (std::int64_t i = 0; i + 1 < elems; i += 2) {
      s0 += a[i] + b[i];
      s1 += a[i + 1] + b[i + 1];
    }
    sink = s0 + s1;
  });
  // Pure compute: the same FMA count, register-resident.
  double csink = 0;
  const auto [comp_s, comp_n] = auto_range(budget, 1, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i)
      fma_throughput_body(elems / (8 * kUnroll) + 1, 8, &csink);
  });

  const double t_both = both_s / static_cast<double>(both_n);
  const double t_mem = mem_s / static_cast<double>(mem_n);
  const double t_comp = comp_s / static_cast<double>(comp_n);
  if (t_mem <= 0) return 1.0;
  // Fraction of the memory time NOT hidden behind compute: 1 means fully
  // serialized (psi(0) = 1), 0 means fully overlapped (psi(inf) = 0).
  return std::clamp((t_both - t_comp) / t_mem, 0.0, 1.0);
}

}  // namespace

double measure_memory_word_cost(const CalibrationOptions& opts) {
  const std::int64_t lines = chase_lines(opts);
  ProbeBuffer buf(static_cast<std::size_t>(lines) * sizeof(Line));
  return chase_seconds_per_load(buf.lines(), lines, opts.seconds_per_probe);
}

double measure_overlap_psi(const CalibrationOptions& opts, double* gamma_probe) {
  const std::int64_t elems = stream_elems(opts);
  ProbeBuffer buf(2 * static_cast<std::size_t>(elems) * sizeof(double));
  if (gamma_probe) *gamma_probe = 1.0;
  return overlap_psi(buf.doubles(), buf.doubles() + elems, elems, opts.seconds_per_probe);
}

CalibrationResult calibrate_model(const CalibrationOptions& opts) {
  CalibrationResult r;
  r.mu = measure_fma_throughput(opts);
  const std::int64_t lines = chase_lines(opts);
  const std::int64_t elems = stream_elems(opts);
  ProbeBuffer buf(std::max(static_cast<std::size_t>(lines) * sizeof(Line),
                           2 * static_cast<std::size_t>(elems) * sizeof(double)));
  // The chase first, on a buffer nothing has streamed yet, as on a fresh
  // allocation. Streaming it first left the lines hot and read pi about a
  // quarter low on a 4-vCPU x86-64 KVM guest.
  r.pi = chase_seconds_per_load(buf.lines(), lines, opts.seconds_per_probe);
  r.measured_psi =
      overlap_psi(buf.doubles(), buf.doubles() + elems, elems, opts.seconds_per_probe);
  r.peak_gflops = r.mu > 0 ? 1e-9 / r.mu : 0;
  // Fit psi(gamma) = 1/(1 + c*gamma) through the measured point; psi = 1
  // (no overlap observed) degenerates to c = 0.
  r.psi_c = (r.measured_psi > 0 && r.measured_psi < 1 && r.gamma_probe > 0)
                ? (1.0 / r.measured_psi - 1.0) / r.gamma_probe
                : 0.0;
  return r;
}

CalibrationResult calibrate(const CalibrationOptions& opts) {
  CalibrationResult r = calibrate_model(opts);
  r.fma_latency_s = measure_fma_latency(opts);

  // Cycle attribution: run the throughput probe once under a counter
  // group. With hardware counters this reports real cycles/FMA; under
  // fallback the synthetic count (ns) still sanity-checks mu.
  PmuGroup group;
  group.open();
  const PmuCounts before = group.read();
  double sink = 0;
  const std::int64_t trips = 1 << 14;
  const int chains = fma_chains_used(std::max(1, opts.fma_chains));
  fma_throughput_body(trips, chains, &sink);
  const PmuCounts delta = PmuCounts::delta(before, group.read());
  r.used_hardware_counters = group.any_hardware();
  const double fmas = static_cast<double>(trips) * kUnroll * chains;
  r.cycles_per_fma = static_cast<double>(delta[PmuEvent::kCycles]) / fmas;
  return r;
}

std::string CalibrationResult::to_json() const {
  std::ostringstream os;
  os.precision(9);
  os << "{\"mu\":" << mu << ",\"fma_latency_s\":" << fma_latency_s << ",\"pi\":" << pi
     << ",\"psi_c\":" << psi_c << ",\"measured_psi\":" << measured_psi
     << ",\"gamma_probe\":" << gamma_probe << ",\"peak_gflops\":" << peak_gflops
     << ",\"used_hardware_counters\":" << (used_hardware_counters ? "true" : "false")
     << ",\"cycles_per_fma\":" << cycles_per_fma << "}";
  return os.str();
}

// ---- the process's one host calibration ------------------------------------

namespace {

constexpr std::int64_t kHostReady = -1;

struct HostCalibration {
  // 0: not started; kHostReady: `result` is published; otherwise the id
  // of the process whose thread is running the probes.
  std::atomic<std::int64_t> claim{0};
  std::atomic<int> runs{0};
  CalibrationResult result;
};

constinit HostCalibration g_host;

std::int64_t this_process() {
#if defined(_WIN32)
  return 1;
#else
  return static_cast<std::int64_t>(::getpid());
#endif
}

}  // namespace

const CalibrationResult* host_calibration(bool wait) {
  for (;;) {
    std::int64_t claim = g_host.claim.load(std::memory_order_acquire);
    if (claim == kHostReady) return &g_host.result;
    const std::int64_t self = this_process();
    if (claim != self) {
      // Unclaimed, or claimed before a fork by a thread this process
      // does not have.
      if (!g_host.claim.compare_exchange_strong(claim, self, std::memory_order_acq_rel))
        continue;
      g_host.runs.fetch_add(1, std::memory_order_relaxed);
      CalibrationOptions opts;
      opts.seconds_per_probe = 0.0015;
      opts.memory_bytes = 16ll << 20;
      try {
        g_host.result = calibrate_model(opts);
      } catch (...) {
        g_host.claim.store(0, std::memory_order_release);
        throw;
      }
      g_host.claim.store(kHostReady, std::memory_order_release);
      return &g_host.result;
    }
    if (!wait) return nullptr;
    // A sleep, not a lock: a child forked now inherits no held mutex.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int host_calibration_runs() { return g_host.runs.load(std::memory_order_relaxed); }

}  // namespace ag::obs
