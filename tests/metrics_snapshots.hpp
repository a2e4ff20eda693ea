// Two synthetic telemetry snapshots with fixed contents, for the golden
// rendering tests (tests/test_obs_metrics.cpp). The files under
// tests/golden/ hold their Prometheus and JSON renderings; EXPERIMENTS.md
// records how they were made.
//
//   full_snapshot()    every section of the exposition: two shape classes
//                      (one with a phase timeline), two telemetry lanes (one
//                      with queue wait), a scheduler with two workers and the
//                      callers lane, panel-cache classes including untagged
//                      requests, the autotuner, a two-class topology and
//                      forensics counts. Some counters exceed 1e9, so a
//                      counter printed through a double would show.
//   minimal_snapshot() telemetry on, one class, no runtime section.
#pragma once

#include <cstdint>

#include "obs/telemetry.hpp"

namespace agtest {

namespace detail {

inline ag::obs::CallRecord golden_record(double t, std::int64_t m, std::int64_t n,
                                         std::int64_t k, int shape_class) {
  ag::obs::CallRecord r;
  r.t = t;
  r.m = m;
  r.n = n;
  r.k = k;
  r.threads = 2;
  r.schedule = ag::obs::ScheduleKind::kParallel;
  r.shape_class = shape_class;
  r.seconds = 0.00125;
  r.gflops = 2.0 * m * n * k / r.seconds * 1e-9;
  r.efficiency = 0.375;
  r.expected_gflops = 31.25;
  return r;
}

inline ag::obs::ClassSnapshot golden_class(ag::obs::ShapeKind kind, int decade,
                                           std::uint64_t scale) {
  ag::obs::ClassSnapshot c;
  c.shape.kind = kind;
  c.shape.decade = decade;
  // Latency: three ordinary buckets and the overflow bucket.
  c.latency.counts[40] = 3 * scale;
  c.latency.counts[41] = 5 * scale;
  c.latency.counts[57] = 1 * scale;
  c.latency.counts[ag::obs::kLatencyBuckets - 1] = 1;
  c.latency.total = 9 * scale + 1;
  c.latency.sum = 0.0123456789 * static_cast<double>(scale);
  c.latency.max = 12.5;
  c.calls = c.latency.total;
  c.p50 = 2.75e-06;
  c.p95 = 3.5e-06;
  c.p99 = 0.000261;
  // Efficiency: two ordinary buckets and the overflow bucket.
  c.efficiency.counts[10] = 4 * scale;
  c.efficiency.counts[33] = 5 * scale;
  c.efficiency.counts[ag::obs::kEfficiencyBuckets - 1] = 1;
  c.efficiency.total = c.latency.total;
  c.efficiency.sum = 5.25 * static_cast<double>(scale);
  c.efficiency.max = 1.4375;
  c.drift_fast = 0.8125;
  c.drift_reference = 0.96875;
  c.drift_samples = 8 * scale;
  c.in_drift = kind == ag::obs::ShapeKind::kSquare;
  c.anomalies = 2;
  return c;
}

}  // namespace detail

inline ag::obs::TelemetrySnapshot full_snapshot() {
  using namespace ag::obs;
  TelemetrySnapshot s;
  s.enabled = true;
  s.uptime_seconds = 4321.125;
  s.peak_gflops_per_core = 12.8;
  s.anomaly_count = 2;
  s.flight_recorded = 3000000007ull;

  ClassSnapshot square = detail::golden_class(ShapeKind::kSquare, 6, 1000000000ull);
  square.phase_samples = 8000000001ull;
  for (int p = 0; p < kPhaseCount; ++p) {
    PhaseStat& ps = square.phases[static_cast<std::size_t>(p)];
    ps.samples = square.phase_samples;
    ps.seconds = 0.5 + 0.25 * p;
    ps.mean_share = 0.0625 * (p + 1);
    ps.p50 = 0.03125 * (p + 1);
    ps.p95 = 0.046875 * (p + 1);
    ps.p99 = 0.0546875 * (p + 1);
  }
  s.classes.push_back(square);
  s.classes.push_back(detail::golden_class(ShapeKind::kSmall, 3, 7));
  for (const ClassSnapshot& c : s.classes) s.total_calls += c.calls;

  const int square_index = square.shape.index();
  AnomalyEvent a;
  a.t = 17.5;
  a.shape_class = square_index;
  a.fast_ewma = 0.8125;
  a.reference_ewma = 0.96875;
  a.threshold = 0.25;
  a.trigger = detail::golden_record(17.5, 96, 96, 96, square_index);
  s.anomalies.push_back(a);

  s.flight.push_back(detail::golden_record(17.25, 64, 64, 64, square_index));
  CallRecord phased = detail::golden_record(17.5, 96, 96, 96, square_index);
  phased.phases.workers = 2;
  phased.phases.seconds = {0.0, 0.0005, 0.00025, 0.0015, 0.000125, 0.0, 0.0};
  s.flight.push_back(phased);

  WorkerSnapshot host;
  host.name = "host-0";
  host.barrier_wait.counts[30] = 6;
  host.barrier_wait.total = 6;
  host.barrier_wait.sum = 0.000252192;
  host.barrier_wait.max = 9.5e-05;
  s.workers.push_back(host);
  WorkerSnapshot pool;
  pool.name = "armgemm-pw0";
  pool.barrier_wait.counts[28] = 2;
  pool.barrier_wait.total = 2;
  pool.barrier_wait.sum = 3.5e-05;
  pool.barrier_wait.max = 2e-05;
  pool.queue_wait.counts[36] = 4;
  pool.queue_wait.counts[44] = 1;
  pool.queue_wait.total = 5;
  pool.queue_wait.sum = 0.00078125;
  pool.queue_wait.max = 0.0003;
  s.workers.push_back(pool);

  s.scheduler_available = true;
  s.scheduler.workers = 2;
  s.scheduler.queued = 3;
  s.scheduler.submissions = 4000000001ull;
  s.scheduler.tickets_enqueued = 250;
  s.scheduler.tickets_inline = 12;
  const char* const lanes[] = {"armgemm-pw0", "armgemm-pw1", "callers"};
  for (int i = 0; i < 3; ++i) {
    SchedulerWorkerStats w;
    w.name = lanes[i];
    w.tickets_run = 100u + 10u * static_cast<unsigned>(i);
    w.tickets_stolen = 7u + static_cast<unsigned>(i);
    w.steals_local = 5;
    w.steals_remote = 2u + static_cast<unsigned>(i);
    w.tickets_inline = i == 2 ? 12 : 0;
    w.steal_attempts = 20u + static_cast<unsigned>(i);
    w.steal_failures = 13;
    w.blocks = 3;
    w.busy_seconds = 1.25 + 0.5 * i;
    w.idle_seconds = 0.75;
    s.scheduler.per_worker.push_back(w);
  }

  s.panel_cache_available = true;
  PanelCacheStats& pc = s.panel_cache;
  pc.hits = 5000000003ull;
  pc.misses = 40;
  pc.inserts = 40;
  pc.bypasses = 2;
  pc.evictions = 1;
  pc.wait_stalls = 3;
  pc.wait_seconds = 0.0015625;
  pc.epochs = 9;
  pc.resident_bytes = 6291456;
  pc.peak_bytes = 8388608;
  pc.resident_panels = 3;
  pc.node_replicas = 1;
  pc.by_class.push_back({-1, 4, 1});
  pc.by_class.push_back({square_index, 5000000000ull - 1, 39});

  s.tune_available = true;
  TuneStats& tu = s.tune;
  tu.mode = 1;
  tu.cache_path_set = true;
  tu.cache_entries_loaded = 6;
  tu.cache_rejected = 1;
  // none, analytic, cached, pinned
  const std::uint64_t resolutions[kTuneSourceCount] = {0, 1, 3, 4};
  const std::uint64_t calls[kTuneSourceCount] = {1, 1001, 6000000000ull, 4001};
  for (int src = 0; src < kTuneSourceCount; ++src) {
    tu.resolutions[src] = resolutions[src];
    tu.calls[src] = calls[src];
  }

  s.topology_available = true;
  s.topology.cpus = 4;
  s.topology.nodes = 2;
  s.topology.source = 2;
  s.topology.weights_refined = true;
  s.topology.classes.push_back({0, 2, 1.0, 1.0, 900, 3.5});
  s.topology.classes.push_back({1, 2, 0.5, 0.4375, 450, 3.25});

  s.forensics.captures[0] = 1;
  s.forensics.captures[1] = 2;
  s.forensics.captures[2] = 3;
  s.forensics.written = 5;
  s.forensics.write_failures = 1;
  s.forensics.suppressed = 7;
  s.forensics.slow_calls = 9;
  s.forensics.last_t = 17.5;
  s.forensics.last_reason = "drift";
  s.forensics.last_path = "forensics-4-drift.json";
  s.forensics.last_wall_seconds = 0.00125;
  s.forensics.last_top_phase = "kernel";
  s.forensics.last_top_share = 0.6;
  return s;
}

inline ag::obs::TelemetrySnapshot minimal_snapshot() {
  using namespace ag::obs;
  TelemetrySnapshot s;
  s.enabled = true;
  s.uptime_seconds = 0.25;
  s.peak_gflops_per_core = 10;
  ClassSnapshot c = detail::golden_class(ShapeKind::kSkinny, 5, 1);
  s.classes.push_back(c);
  s.total_calls = c.calls;
  s.flight_recorded = c.calls;
  return s;
}

}  // namespace agtest
