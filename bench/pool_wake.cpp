// Wake-up cost of the fork/join pool (threading/thread_pool): how long a
// caller waits for a no-op region after it has been busy elsewhere for a
// while. run() joins every worker, so after a long gap it waits for
// workers that have parked to wake; a ticket region joins only the
// workers that entered before the tickets ran out, so it never waits for
// one still asleep.
//
// On a pool of nproc threads, for caller gaps of 0, 20, 100 and 500 us
// (the caller busy-waits on the clock; the pool's workers park after
// ARMGEMM_SPIN_US, 50 us by default), each rep idles for the gap and
// then times one no-op run() or one ticket region of 2 x nproc no-op
// tickets, the two alternating. Prints the median, p90 and p99 of 2000
// reps of each, in microseconds. No flags.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "threading/thread_pool.hpp"

namespace {

constexpr int kReps = 2000;

double percentile(const std::vector<double>& sorted, double p) {
  const auto i = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(i, 1, sorted.size()) - 1];
}

void busy_wait_us(std::uint64_t us) {
  const std::uint64_t until = ag::now_ns() + us * 1000;
  while (ag::now_ns() < until) {
  }
}

}  // namespace

int main() {
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ag::ThreadPool pool(threads);
  const std::function<void(int)> no_op_rank = [](int) {};
  const std::function<void(std::int64_t)> no_op_ticket = [](std::int64_t) {};
  const std::int64_t tickets = 2 * std::int64_t{threads};
  for (int i = 0; i < 100; ++i) {  // start every worker
    pool.run(no_op_rank);
    pool.run_tickets(no_op_ticket, tickets);
  }

  std::cout << "Fork/join wake-up on a " << threads << "-thread pool, ARMGEMM_SPIN_US="
            << ag::spin_wait_us() << ": " << kReps
            << " reps per cell, run() and a ticket region of " << tickets
            << " no-op tickets alternating\n";
  ag::Table table({"region", "gap us", "median us", "p90 us", "p99 us"});
  for (const std::uint64_t gap : {0, 20, 100, 500}) {
    std::vector<double> run_us, ticket_us;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const bool ticket : {rep % 2 == 0, rep % 2 != 0}) {
        busy_wait_us(gap);
        const std::uint64_t t0 = ag::now_ns();
        if (ticket)
          pool.run_tickets(no_op_ticket, tickets);
        else
          pool.run(no_op_rank);
        (ticket ? ticket_us : run_us).push_back(static_cast<double>(ag::now_ns() - t0) * 1e-3);
      }
    }
    for (auto* v : {&run_us, &ticket_us}) {
      std::sort(v->begin(), v->end());
      table.add_row({v == &run_us ? "run()" : "tickets", std::to_string(gap),
                     ag::Table::fmt(percentile(*v, 0.5), 2), ag::Table::fmt(percentile(*v, 0.9), 2),
                     ag::Table::fmt(percentile(*v, 0.99), 2)});
    }
  }
  table.print(std::cout);
  return 0;
}
