// Cost of telemetry's record path and of the one host calibration behind
// its expected-efficiency model.
//
// Record path: ns per obs::telemetry_record_call on one thread, with and
// without a phase timeline, for one 64^3 shape and for a cycle of 1024
// shapes with m, n and k drawn log-uniformly from 8 to 192 (the
// small_calls mix, which defeats the 8-entry expected-Gflops memo). The
// model is injected, so no calibration runs in this process; each cell
// is the median of 9 reps of 200k calls after a telemetry reset.
//
// Calibration: one cold telemetry_enable() in a forked child that has
// made no library call, which runs the process's host calibration
// (obs/calibrate host_calibration): its wall ms, the rise of the child's
// max RSS, and the constants it derived. No flags.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <random>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/telemetry.hpp"

namespace {

constexpr int kReps = 9;
constexpr int kCalls = 200000;

struct Shape {
  std::int64_t m, n, k;
};

struct ColdCalibration {
  double ms = -1;
  double rss_delta_mb = 0;
  double peak_gflops = 0, mu = 0, pi = 0, psi_c = 0;
};

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Runs one cold telemetry_enable() in a forked child and reads back what
// it cost. Must run before this process makes any library call.
ColdCalibration cold_calibration() {
  ColdCalibration out;
  int fds[2];
  if (pipe(fds) != 0) return out;
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) return out;
  if (pid == 0) {
    close(fds[0]);
    ColdCalibration c;
    const double rss0 = max_rss_mb();
    const std::uint64_t t0 = ag::now_ns();
    ag::obs::telemetry_enable();
    c.ms = static_cast<double>(ag::now_ns() - t0) * 1e-6;
    c.rss_delta_mb = max_rss_mb() - rss0;
    ag::model::CostParams cost;
    if (ag::obs::telemetry_model_params(&c.peak_gflops, &cost, &c.psi_c)) {
      c.mu = cost.mu;
      c.pi = cost.pi;
    }
    const bool sent = write(fds[1], &c, sizeof c) == static_cast<ssize_t>(sizeof c);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  ColdCalibration c;
  if (read(fds[0], &c, sizeof c) == static_cast<ssize_t>(sizeof c)) out = c;
  close(fds[0]);
  waitpid(pid, nullptr, 0);
  return out;
}

std::vector<Shape> log_uniform_shapes(int count) {
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> u(std::log(8.0), std::log(192.0));
  const auto dim = [&] { return static_cast<std::int64_t>(std::lround(std::exp(u(rng)))); };
  std::vector<Shape> shapes(static_cast<std::size_t>(count));
  for (Shape& s : shapes) s = {dim(), dim(), dim()};
  return shapes;
}

// Median ns per record over kReps reps of kCalls calls cycling `shapes`.
double ns_per_record(const std::vector<Shape>& shapes, const ag::obs::CallPhases* phases) {
  const ag::BlockSizes bs;
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    ag::obs::telemetry_reset();
    const double end_time = ag::now_seconds();
    const std::uint64_t t0 = ag::now_ns();
    for (int i = 0; i < kCalls; ++i) {
      const Shape& s = shapes[static_cast<std::size_t>(i) % shapes.size()];
      ag::obs::telemetry_record_call(s.m, s.n, s.k, 1, ag::obs::ScheduleKind::kSmall, 20e-6,
                                     bs, end_time, phases);
    }
    reps.push_back(static_cast<double>(ag::now_ns() - t0) / kCalls);
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace

int main() {
  const ColdCalibration cal = cold_calibration();

  ag::obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
  ag::obs::telemetry_enable();
  ag::obs::CallPhases phases;
  phases.add(ag::obs::Phase::kPackA, 2e-6);
  phases.add(ag::obs::Phase::kPackB, 3e-6);
  phases.add(ag::obs::Phase::kKernel, 14e-6);
  const std::vector<Shape> one = {{64, 64, 64}};
  const std::vector<Shape> mix = log_uniform_shapes(1024);

  std::cout << "telemetry_record_call, one thread, injected model: median of " << kReps
            << " reps of " << kCalls << " calls\n";
  ag::Table table({"shapes", "ns/call", "ns/call with phases"});
  table.add_row({"64^3", ag::Table::fmt(ns_per_record(one, nullptr), 1),
                 ag::Table::fmt(ns_per_record(one, &phases), 1)});
  table.add_row({"1024 log-uniform in [8, 192]", ag::Table::fmt(ns_per_record(mix, nullptr), 1),
                 ag::Table::fmt(ns_per_record(mix, &phases), 1)});
  table.print(std::cout);
  ag::obs::telemetry_disable();

  std::cout << "\ncold host calibration (first telemetry_enable in a forked child)\n";
  if (cal.ms < 0) {
    std::cout << "  child failed\n";
    return 1;
  }
  ag::Table ctab({"ms", "max RSS +MB", "peak Gflops/core", "mu ps/flop", "pi ns/word", "psi_c"});
  ctab.add_row({ag::Table::fmt(cal.ms, 1), ag::Table::fmt(cal.rss_delta_mb, 1),
                ag::Table::fmt(cal.peak_gflops, 2), ag::Table::fmt(cal.mu * 1e12, 2),
                ag::Table::fmt(cal.pi * 1e9, 1), ag::Table::fmt(cal.psi_c, 3)});
  ctab.print(std::cout);
  return 0;
}
