// Bounded busy-wait helper shared by the hybrid barrier and the pool's
// fork-join edges.
//
// Waiters spin for at most ARMGEMM_SPIN_US microseconds (common/knobs)
// with exponential cpu_relax backoff before falling back to an OS blocking
// primitive. Short GEMM sync points (a few microseconds between barrier
// arrivals) resolve inside the spin window without a syscall; long waits
// (oversubscribed hosts, ragged shapes) park on the condition variable as
// before. Once the backoff ladder tops out the spinner interleaves
// std::this_thread::yield(), which keeps oversubscribed hosts (more ranks
// than cores) live instead of burning a full quantum per waiter.
#pragma once

#include <cstdint>
#include <thread>

#include "common/knobs.hpp"
#include "common/timer.hpp"

namespace ag {

/// Pipeline-friendly "I am busy-waiting" hint; a no-op scheduler-wise.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// One spin episode with a deadline taken from the process-wide knob (or
/// an explicit budget). Call spin() in a loop around the wait predicate;
/// when it returns false the budget is spent and the caller should block.
class SpinWait {
 public:
  SpinWait() : budget_us_(spin_wait_us()) {}
  explicit SpinWait(std::int64_t budget_us) : budget_us_(budget_us) {}

  bool spin() {
    if (budget_us_ <= 0) return false;
    const std::uint64_t now = now_ns();
    if (!armed_) {
      armed_ = true;
      deadline_ns_ = now + static_cast<std::uint64_t>(budget_us_) * 1000;
    } else if (now >= deadline_ns_) {
      return false;
    }
    for (int i = 0; i < reps_; ++i) cpu_relax();
    if (reps_ < kMaxRelaxReps)
      reps_ *= 2;
    else
      std::this_thread::yield();
    return true;
  }

 private:
  static constexpr int kMaxRelaxReps = 64;
  std::int64_t budget_us_;
  bool armed_ = false;
  int reps_ = 1;
  std::uint64_t deadline_ns_ = 0;
};

}  // namespace ag
