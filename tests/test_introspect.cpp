// Runtime introspection layer: scheduler counters on the persistent
// batch pool (merge laws under concurrent load — the ThreadSanitizer
// target), ticket provenance through TaskSource::run_ticket, panel-cache
// wait/residency/per-class accounting, per-ticket tracer spans with
// queue-depth counter events, the Prometheus/JSON exposition of the new
// families, atomic metrics publication, and the C API snapshot mirror.
//
// Suite names deliberately contain "Batch" / "PanelCache" / "Telemetry"
// so the TSan CI job's -R filter picks them up.
#include <gtest/gtest.h>
#ifdef __linux__
#include <dirent.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "capi/armgemm_cblas.h"
#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batch.hpp"
#include "core/panel_cache.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/runtime_introspect.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "scoped_knobs.hpp"
#include "threading/persistent_pool.hpp"

namespace obs = ag::obs;
using ag::Context;
using ag::index_t;
using ag::PanelCache;
using ag::PanelKey;
using ag::PersistentPool;
using ag::TaskSource;
using ag::TicketInfo;

namespace {

/// Records every ticket's provenance; optionally burns a little CPU so
/// workers have time to participate before the caller drains the queue.
class RecordingSource : public TaskSource {
 public:
  explicit RecordingSource(std::int64_t n, int spin_iters = 0)
      : infos_(static_cast<std::size_t>(n)), runs_(static_cast<std::size_t>(n)),
        spin_iters_(spin_iters) {}

  void run_ticket(std::int64_t ticket, const TicketInfo& info) override {
    volatile double sink = 0;
    for (int i = 0; i < spin_iters_; ++i) sink = sink + 1e-9;
    infos_[static_cast<std::size_t>(ticket)] = info;
    runs_[static_cast<std::size_t>(ticket)].fetch_add(1, std::memory_order_relaxed);
  }

  const TicketInfo& info(std::int64_t t) const {
    return infos_[static_cast<std::size_t>(t)];
  }
  std::uint64_t runs(std::int64_t t) const {
    return runs_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
  }

 private:
  std::vector<TicketInfo> infos_;
  std::vector<std::atomic<std::uint64_t>> runs_;
  int spin_iters_;
};

/// Sum of tickets_run over every lane, including the "callers" lane.
std::uint64_t total_run(const obs::SchedulerStats& s) {
  std::uint64_t sum = 0;
  for (const auto& w : s.per_worker) sum += w.tickets_run;
  return sum;
}

/// One dgemm_strided_batch call: `count` entries of s^3, one shared B.
void run_batch(index_t s, std::int64_t count, int threads, int seed = 700) {
  auto a = ag::random_matrix(s, s * count, seed);
  auto b = ag::random_matrix(s, s, seed + 1);
  auto c = ag::random_matrix(s, s * count, seed + 2);
  Context ctx(ag::KernelShape{8, 6}, threads);
  ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s,
                          1.0, a.data(), s, s * s, b.data(), b.ld(), 0, 1.0, c.data(), s, s * s,
                          count, ctx);
}

}  // namespace

// ---- scheduler counters --------------------------------------------------

TEST(BatchIntrospect, SingleSubmissionTicketAccounting) {
  PersistentPool& pool = PersistentPool::instance();
  pool.ensure_workers(2);
  pool.reset_stats();

  const std::int64_t n = 64;
  RecordingSource src(n, 2000);
  pool.execute(src, n);

  for (std::int64_t t = 0; t < n; ++t)
    EXPECT_EQ(src.runs(t), 1u) << "ticket " << t << " did not run exactly once";

  if (!obs::stats_compiled_in) return;  // counters compiled out: nothing to check
  const obs::SchedulerStats s = pool.stats();
  EXPECT_EQ(s.submissions, 1u);
  EXPECT_EQ(s.tickets_enqueued + s.tickets_inline, static_cast<std::uint64_t>(n));
  EXPECT_EQ(total_run(s), static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.queued, 0);
  EXPECT_GE(s.workers, 2);
  for (const auto& w : s.per_worker) {
    EXPECT_EQ(w.steal_attempts, w.tickets_stolen + w.steal_failures)
        << "lane " << w.name << ": every foreign probe either steals or fails";
    EXPECT_GE(w.busy_seconds, 0.0);
    EXPECT_GE(w.idle_seconds, 0.0);
  }
}

TEST(BatchIntrospect, TicketProvenanceIsComplete) {
  PersistentPool& pool = PersistentPool::instance();
  pool.ensure_workers(3);
  pool.reset_stats();

  const std::int64_t n = 48;
  RecordingSource src(n, 5000);
  pool.execute(src, n);

  for (std::int64_t t = 0; t < n; ++t) {
    const TicketInfo& info = src.info(t);
    EXPECT_GE(info.queue_wait_seconds, 0.0);
    EXPECT_GE(info.runner_rank, -1);  // -1 = helping caller
    EXPECT_GE(info.queue_depth, 0);
    if (info.inline_overflow) {
      // Admission overflow never touched the queue.
      EXPECT_EQ(info.shard, -1);
      EXPECT_FALSE(info.stolen);
      EXPECT_EQ(info.runner_rank, -1);
    } else {
      EXPECT_GE(info.shard, 0);
      EXPECT_LT(info.shard, 8);
    }
    if (info.stolen) {
      EXPECT_GE(info.shard, 0);
    }
  }
}

TEST(BatchIntrospect, InlineOverflowAttributedToCallers) {
  agtest::ScopedKnob depth(ag::Knob::kQueueDepth, 1);  // nearly everything overflows inline
  PersistentPool& pool = PersistentPool::instance();
  pool.ensure_workers(2);
  pool.reset_stats();

  const std::int64_t n = 32;
  RecordingSource src(n);
  pool.execute(src, n);

  std::uint64_t overflowed = 0;
  for (std::int64_t t = 0; t < n; ++t) {
    EXPECT_EQ(src.runs(t), 1u);
    if (src.info(t).inline_overflow) ++overflowed;
  }
  EXPECT_GT(overflowed, 0u) << "depth-1 admission should force inline overflow";

  if (!obs::stats_compiled_in) return;
  const obs::SchedulerStats s = pool.stats();
  EXPECT_EQ(s.tickets_inline, overflowed);
  EXPECT_EQ(s.tickets_enqueued + s.tickets_inline, static_cast<std::uint64_t>(n));
  EXPECT_EQ(total_run(s), static_cast<std::uint64_t>(n));
  // Inline tickets run on the submitting thread: the callers lane owns them.
  for (const auto& w : s.per_worker) {
    if (w.name == "callers") EXPECT_GE(w.tickets_inline, overflowed);
    else EXPECT_EQ(w.tickets_inline, 0u);
  }
}

// The TSan target: concurrent submitters + workers all hammering the
// relaxed counters, then the merge laws must still hold exactly (counter
// increments land before each submission's completion signal).
static void merge_laws_under_load() {
  PersistentPool& pool = PersistentPool::instance();
  pool.ensure_workers(4);
  pool.reset_stats();

  constexpr int kSubmitters = 4;
  constexpr std::int64_t kTickets = 96;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int i = 0; i < kSubmitters; ++i) {
    submitters.emplace_back([] {
      RecordingSource src(kTickets, 1000);
      PersistentPool::instance().execute(src, kTickets);
      for (std::int64_t t = 0; t < kTickets; ++t) ASSERT_EQ(src.runs(t), 1u);
    });
  }
  for (auto& th : submitters) th.join();

  if (!obs::stats_compiled_in) return;
  const obs::SchedulerStats s = PersistentPool::instance().stats();
  const std::uint64_t expect = kSubmitters * static_cast<std::uint64_t>(kTickets);
  EXPECT_EQ(s.submissions, static_cast<std::uint64_t>(kSubmitters));
  EXPECT_EQ(s.tickets_enqueued + s.tickets_inline, expect);
  EXPECT_EQ(total_run(s), expect);
  for (const auto& w : s.per_worker)
    EXPECT_EQ(w.steal_attempts, w.tickets_stolen + w.steal_failures) << "lane " << w.name;
  EXPECT_GE(s.utilization(), 0.0);
  EXPECT_LE(s.utilization(), 1.0);
  EXPECT_GE(s.steal_imbalance(), 0.0);
}

TEST(BatchIntrospect, MergeLawsUnderConcurrentLoadSpinMode) {
  agtest::ScopedKnob spin(ag::Knob::kSpinUs, 50);
  merge_laws_under_load();
}

TEST(BatchIntrospect, MergeLawsUnderConcurrentLoadBlockMode) {
  agtest::ScopedKnob spin(ag::Knob::kSpinUs, 0);  // immediate-block path: blocks counted
  merge_laws_under_load();
}

TEST(BatchIntrospect, ResetStatsZeroesEveryLane) {
  PersistentPool& pool = PersistentPool::instance();
  pool.ensure_workers(2);
  RecordingSource src(16);
  pool.execute(src, 16);
  pool.reset_stats();

  const obs::SchedulerStats s = pool.stats();
  EXPECT_EQ(s.submissions, 0u);
  EXPECT_EQ(s.tickets_enqueued, 0u);
  EXPECT_EQ(s.tickets_inline, 0u);
  EXPECT_EQ(total_run(s), 0u);
  for (const auto& w : s.per_worker) {
    EXPECT_EQ(w.tickets_stolen, 0u) << w.name;
    EXPECT_EQ(w.steal_attempts, 0u) << w.name;
    EXPECT_EQ(w.blocks, 0u) << w.name;
  }
}

TEST(BatchIntrospect, SchedulerSourceRegisteredProcessWide) {
  PersistentPool::instance().ensure_workers(1);
  ASSERT_TRUE(obs::scheduler_stats_available());
  PersistentPool::instance().reset_stats();
  RecordingSource src(8);
  PersistentPool::instance().execute(src, 8);
  const obs::SchedulerStats s = obs::scheduler_stats();
  if (obs::stats_compiled_in) {
    EXPECT_EQ(total_run(s), 8u);
  } else {
    // -DARMGEMM_STATS=OFF: the snapshot exists but every counter is zero.
    EXPECT_EQ(total_run(s), 0u);
    EXPECT_EQ(s.submissions, 0u);
  }
}

#ifdef __linux__
TEST(BatchIntrospect, WorkerThreadsAreNamedByRank) {
  PersistentPool::instance().ensure_workers(2);
  // /proc/self/task/<tid>/comm holds each thread's name (15-char cap).
  // ensure_workers returns once the threads are spawned; each worker
  // names itself as its first act, so poll briefly for the names to land.
  std::set<std::string> names;
  for (int attempt = 0; attempt < 200; ++attempt) {
    names.clear();
    DIR* task = opendir("/proc/self/task");
    ASSERT_NE(task, nullptr);
    while (dirent* e = readdir(task)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
      std::string name;
      if (std::getline(comm, name)) names.insert(name);
    }
    closedir(task);
    if (names.count("armgemm-pw0") && names.count("armgemm-pw1")) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(names.count("armgemm-pw0"))
      << "persistent-pool worker 0 should be named armgemm-pw0";
  EXPECT_TRUE(names.count("armgemm-pw1"));
}
#endif

// ---- tracer: per-ticket spans + queue-depth counters ---------------------

TEST(BatchIntrospect, TracerRecordsTicketSpansAcrossLanes) {
  if (!obs::stats_compiled_in)
    GTEST_SKIP() << "-DARMGEMM_STATS=OFF: Context::stats() is compiled to nullptr, "
                    "so no tracer ever attaches (the zero-cost contract)";
  obs::Tracer tracer;
  obs::GemmStats stats;
  stats.set_tracer(&tracer);

  // Heavy enough entries, twice over, that the persistent-pool workers
  // usually claim tickets alongside the helping caller. On a loaded host
  // a worker may not be scheduled before the caller drains whole calls
  // alone, so keep submitting, up to a bound, until a second lane has run
  // a ticket (every lane that runs a blocked ticket records into its own
  // stats slot).
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  const index_t s = 96;
  const std::int64_t count = 32;
  auto a = ag::random_matrix(s, s * count, 710);
  auto b = ag::random_matrix(s, s, 711);
  auto c = ag::random_matrix(s, s * count, 712);
  Context ctx(ag::KernelShape{8, 6}, 4);
  ctx.set_stats(&stats);
  for (int call = 0; call < 2 || (call < 50 && stats.per_thread().size() < 2); ++call) {
    ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s,
                            s, 1.0, a.data(), s, s * s, b.data(), b.ld(), 0, 1.0, c.data(), s,
                            s * s, count, ctx);
  }
  ctx.set_stats(nullptr);

  EXPECT_GT(tracer.counter_event_count(), 0u) << "no queue-depth counter events";
  const std::string json = tracer.to_json();
  for (const char* needle : {"\"ticket/", "queue_depth", "\"ph\":\"C\"", "wait_us",
                             "cache_hits", "cache_misses"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "trace missing: " << needle;
  }

  // The trace is valid JSON (a bare Chrome-trace event array); every lane
  // that ran a ticket is named for its scheduler role, and every span
  // carries the scheduling extras.
  std::string err;
  const auto doc = ag::JsonValue::parse(json, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(doc.is_array());
  std::map<int, std::string> lane_names;
  for (const auto& ev : doc.items()) {
    if (ev["ph"].as_string() == "M" && ev["name"].as_string() == "thread_name")
      lane_names[static_cast<int>(ev["tid"].as_number())] = ev["args"]["name"].as_string();
  }
  std::uint64_t ticket_spans = 0;
  std::set<int> lanes;
  for (const auto& ev : doc.items()) {
    const std::string name = ev["name"].as_string();
    if (name.rfind("ticket/", 0) != 0) continue;
    ++ticket_spans;
    const int lane = static_cast<int>(ev["tid"].as_number());
    lanes.insert(lane);
    // Lane 0 is the submitting caller; lane r+1 is pool worker r.
    const std::string expect_name =
        lane == 0 ? "caller" : "armgemm-pw" + std::to_string(lane - 1);
    EXPECT_EQ(lane_names[lane], expect_name);
    EXPECT_EQ(ev["args"]["ticket"].kind(), ag::JsonValue::Kind::kNumber);
    EXPECT_EQ(ev["args"]["stolen"].kind(), ag::JsonValue::Kind::kNumber);
  }
  // At least one span per entry per call (blocked entries may shard into
  // several tickets), spread over more than one scheduler lane.
  EXPECT_GE(ticket_spans, static_cast<std::uint64_t>(2 * count));
  EXPECT_GE(lanes.size(), 2u) << "spans should land on more than one lane at 4 threads";
}

TEST(BatchIntrospect, TicketsRecordLayerStatsLikeOneThreadDgemm) {
  if (!obs::stats_compiled_in)
    GTEST_SKIP() << "-DARMGEMM_STATS=OFF: Context::stats() is compiled to nullptr";
  agtest::ScopedKnob cache_on(ag::Knob::kPanelCacheMb, 64);
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);  // blocked tickets and dgemm calls
  ag::BlockSizes bs;
  bs.mr = 8;
  bs.nr = 6;
  bs.kc = 32;
  bs.mc = 32;
  bs.nc = 48;
  // Several row tickets and B panels per entry, one B shared by all.
  const index_t s = 96;
  const std::int64_t count = 6;
  auto a = ag::random_matrix(s, s * count, 720);
  auto b = ag::random_matrix(s, s, 721);
  auto c = ag::random_matrix(s, s * count, 722);

  obs::GemmStats batch_stats;
  Context batch_ctx(ag::KernelShape{8, 6}, 4);
  batch_ctx.set_block_sizes(bs);
  batch_ctx.set_stats(&batch_stats);
  ag::dgemm_strided_batch(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s,
                          1.0, a.data(), s, s * s, b.data(), b.ld(), 0, 1.0, c.data(), s, s * s,
                          count, batch_ctx);
  batch_ctx.set_stats(nullptr);

  obs::GemmStats loop_stats;
  Context loop_ctx(ag::KernelShape{8, 6}, 1);
  loop_ctx.set_block_sizes(bs);
  loop_ctx.set_stats(&loop_stats);
  for (std::int64_t i = 0; i < count; ++i)
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s, 1.0,
              a.data() + i * s * s, s, b.data(), b.ld(), 1.0, c.data() + i * s * s, s, loop_ctx);
  loop_ctx.set_stats(nullptr);

  const obs::LayerCounters got = batch_stats.totals();
  const obs::LayerCounters want = loop_stats.totals();
  EXPECT_GT(want.gebp_calls, 0u);
  EXPECT_EQ(got.gebp_calls, want.gebp_calls);
  EXPECT_EQ(got.kernel_calls, want.kernel_calls);
  EXPECT_EQ(got.pack_a_calls, want.pack_a_calls);
  // Tickets served from the panel cache pack no B.
  EXPECT_LE(got.pack_b_calls, want.pack_b_calls);
}

// ---- panel cache ---------------------------------------------------------

namespace {
PanelKey cache_key(const double* b, index_t jj, std::uint64_t epoch) {
  PanelKey key;
  key.b = b;
  key.ldb = 64;
  key.trans = ag::Trans::NoTrans;
  key.kk = 0;
  key.jj = jj;
  key.kc = 32;
  key.nc = 48;
  key.nr = 6;
  key.epoch = epoch;
  return key;
}
constexpr index_t kCacheElems = 32 * 48;
}  // namespace

TEST(PanelCacheIntrospect, WaitStallAccountingUnderConcurrentPack) {
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 8);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  const double* b = reinterpret_cast<const double*>(0x9000);

  std::atomic<bool> packer_entered{false};
  std::thread first([&] {
    cache.get_or_pack(cache_key(b, 0, epoch), kCacheElems, [&](double* dst) {
      packer_entered.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      for (index_t i = 0; i < kCacheElems; ++i) dst[i] = 1.0;
    });
  });
  while (!packer_entered.load(std::memory_order_acquire)) std::this_thread::yield();
  // Second claimant arrives mid-pack: must wait, and the wait is counted.
  PanelCache::Outcome outcome = PanelCache::Outcome::kMiss;
  auto p = cache.get_or_pack(
      cache_key(b, 0, epoch), kCacheElems, [](double*) { FAIL() << "second pack"; }, -1,
      &outcome);
  first.join();

  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->data()[0], 1.0);
  EXPECT_EQ(outcome, PanelCache::Outcome::kHit);
  const PanelCache::Stats s = cache.stats();
  EXPECT_GE(s.wait_stalls, 1u);
  EXPECT_GT(s.wait_seconds, 0.0);
}

TEST(PanelCacheIntrospect, ResidencyAndPeakBytesTrackInsertions) {
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 8);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  const double* b = reinterpret_cast<const double*>(0xA000);

  const std::size_t panel_bytes = kCacheElems * sizeof(double);
  for (int i = 0; i < 3; ++i)
    cache.get_or_pack(cache_key(b, 48 * i, epoch), kCacheElems,
                      [](double* dst) { dst[0] = 1.0; });

  PanelCache::Stats s = cache.stats();
  EXPECT_EQ(s.resident_panels, 3u);
  EXPECT_EQ(s.resident_bytes, 3 * panel_bytes);
  EXPECT_GE(s.peak_bytes, s.resident_bytes);

  // New epoch drops the panels; peak survives as a high-water mark
  // relative to the post-reset baseline.
  cache.begin_epoch();
  s = cache.stats();
  EXPECT_EQ(s.resident_panels, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_GE(s.peak_bytes, 3 * panel_bytes);
}

TEST(PanelCacheIntrospect, PerClassAttribution) {
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 8);
  PanelCache& cache = PanelCache::instance();
  const std::uint64_t epoch = cache.begin_epoch();
  cache.reset_stats();
  const double* b = reinterpret_cast<const double*>(0xB000);

  const int cls = 7;
  cache.get_or_pack(cache_key(b, 0, epoch), kCacheElems, [](double* d) { d[0] = 1; }, cls);
  cache.get_or_pack(cache_key(b, 0, epoch), kCacheElems, [](double* d) { d[0] = 2; }, cls);
  cache.get_or_pack(cache_key(b, 48, epoch), kCacheElems, [](double* d) { d[0] = 3; });  // untagged

  const PanelCache::Stats s = cache.stats();
  bool found_cls = false, found_untagged = false;
  for (const auto& c : s.by_class) {
    if (c.shape_class == cls) {
      found_cls = true;
      EXPECT_EQ(c.hits, 1u);
      EXPECT_EQ(c.misses, 1u);
    }
    if (c.shape_class == -1) {
      found_untagged = true;
      EXPECT_EQ(c.misses, 1u);
    }
  }
  EXPECT_TRUE(found_cls);
  EXPECT_TRUE(found_untagged);
}

TEST(PanelCacheIntrospect, EndToEndBatchHitRate) {
  agtest::ScopedKnob cap(ag::Knob::kPanelCacheMb, 64);
  PanelCache& cache = PanelCache::instance();
  ASSERT_TRUE(obs::panel_cache_stats_available());
  // Force entries down the blocked path so the cache actually sees them.
  agtest::ScopedKnob small(ag::Knob::kSmallMnk, 0);
  cache.begin_epoch();
  cache.reset_stats();

  run_batch(64, 32, 4);

  const obs::PanelCacheStats s = obs::panel_cache_stats();
  EXPECT_GT(s.hits, 0u) << "32 entries sharing one B must reuse packed panels";
  EXPECT_GT(s.hit_rate(), 0.5);
  bool batch_class = false;
  for (const auto& c : s.by_class)
    if (c.shape_class >= 0) batch_class = true;
  EXPECT_TRUE(batch_class) << "batch driver should tag panel lookups with its shape class";
}

// ---- exposition: Prometheus, JSON, atomic publication, C API -------------

class TelemetryIntrospect : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::stats_compiled_in) GTEST_SKIP() << "built with -DARMGEMM_STATS=OFF";
    saved_metrics_path_ = ag::metrics_path();
    ag::set_knob(ag::Knob::kMetricsPath, "");
    obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
    obs::telemetry_enable();
    obs::telemetry_reset();
    PersistentPool::instance().reset_stats();
    PanelCache::instance().reset_stats();
  }

  void TearDown() override {
    if (!obs::stats_compiled_in) return;
    obs::telemetry_disable();
    ag::set_knob(ag::Knob::kMetricsPath, saved_metrics_path_);
    obs::telemetry_reset();
  }

  std::string saved_metrics_path_;
  // The 48^3 batches run blocked tickets, so the panel cache sees them.
  agtest::ScopedKnob blocked_path_{ag::Knob::kSmallMnk, 0};
};

TEST_F(TelemetryIntrospect, PrometheusExposesSchedulerAndCacheFamilies) {
  run_batch(48, 16, 4);
  const std::string prom = obs::telemetry_render_prometheus();

  for (const char* needle :
       {"armgemm_scheduler_workers", "armgemm_scheduler_submissions_total",
        "armgemm_scheduler_tickets_enqueued_total", "armgemm_scheduler_utilization",
        "armgemm_scheduler_steal_imbalance", "armgemm_worker_tickets_total{worker=",
        "armgemm_worker_busy_seconds_total{worker=\"armgemm-pw0\"}",
        "armgemm_worker_tickets_total{worker=\"callers\"}", "armgemm_panel_cache_hits_total",
        "armgemm_panel_cache_resident_bytes", "armgemm_panel_cache_hit_rate",
        "armgemm_panel_cache_class_hits_total{class="}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "missing: " << needle;
  }

  // Round-trip parse of the full text format: every sample line is
  // "name{labels} value" with a HELP and TYPE declared for its family
  // (the contract tools/armgemm-top --lint enforces in CI).
  std::set<std::string> declared;
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line);
      std::string hash, kw, fam;
      hs >> hash >> kw >> fam;
      EXPECT_TRUE(kw == "HELP" || kw == "TYPE") << line;
      declared.insert(fam);
      continue;
    }
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string family = line.substr(0, name_end);
    // Histogram sample suffixes belong to the base family declaration.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          declared.count(family.substr(0, family.size() - s.size()))) {
        family = family.substr(0, family.size() - s.size());
        break;
      }
    }
    EXPECT_TRUE(declared.count(family)) << "undeclared family: " << family;
    const double value = std::atof(line.c_str() + line.find_last_of(' '));
    EXPECT_EQ(value, value) << "NaN sample: " << line;  // NaN != NaN
  }
}

TEST_F(TelemetryIntrospect, JsonExposesSchedulerAndPanelCacheObjects) {
  run_batch(48, 16, 2);

  std::string err;
  const auto doc = ag::JsonValue::parse(obs::telemetry_render_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(doc["schema"].as_string(), "armgemm-telemetry/1");

  const auto& sched = doc["scheduler"];
  ASSERT_TRUE(sched.is_object()) << "scheduler section absent";
  EXPECT_GE(sched["workers"].as_number(), 1.0);
  EXPECT_GE(sched["submissions"].as_number(), 1.0);
  ASSERT_TRUE(sched["per_worker"].is_array());
  ASSERT_GE(sched["per_worker"].size(), 1u);
  bool saw_callers = false;
  for (const auto& w : sched["per_worker"].items()) {
    EXPECT_FALSE(w["name"].as_string().empty());
    EXPECT_GE(w["tickets_run"].as_number(), 0.0);
    EXPECT_GE(w["busy_seconds"].as_number(), 0.0);
    if (w["name"].as_string() == "callers") saw_callers = true;
  }
  EXPECT_TRUE(saw_callers);

  const auto& cache = doc["panel_cache"];
  ASSERT_TRUE(cache.is_object()) << "panel_cache section absent";
  EXPECT_GE(cache["hits"].as_number() + cache["misses"].as_number(), 1.0);
  ASSERT_TRUE(cache["by_class"].is_array());

  // Batch flight records carry the new queue-wait / cache-hit fields.
  bool saw_batch_record = false;
  for (const auto& rec : doc["flight"].items()) {
    if (rec["schedule"].as_string() != "batch") continue;
    saw_batch_record = true;
    EXPECT_GE(rec["queue_wait_seconds"].as_number(), 0.0);
    EXPECT_TRUE(rec.has("cache_hits"));
    EXPECT_TRUE(rec.has("cache_misses"));
  }
  EXPECT_TRUE(saw_batch_record);
}

TEST_F(TelemetryIntrospect, WriteMetricsPublishesAtomically) {
  run_batch(32, 8, 2);
  const std::string path = "introspect_metrics.prom";
  ASSERT_EQ(obs::telemetry_write_metrics(path), 0);

  // The staging files must be gone: a scraper that lists the directory
  // never sees a torn half-written exposition.
  for (const std::string& tmp : {path + ".tmp", path + ".json.tmp"}) {
    std::ifstream f(tmp);
    EXPECT_FALSE(f.good()) << "staging file left behind: " << tmp;
  }
  // Both artifacts are complete and parse.
  std::ifstream prom(path);
  ASSERT_TRUE(prom.good());
  std::stringstream pbuf;
  pbuf << prom.rdbuf();
  EXPECT_NE(pbuf.str().find("armgemm_scheduler_workers"), std::string::npos);
  std::ifstream js(path + ".json");
  ASSERT_TRUE(js.good());
  std::stringstream jbuf;
  jbuf << js.rdbuf();
  std::string err;
  const auto doc = ag::JsonValue::parse(jbuf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_TRUE(doc["scheduler"].is_object());

  // Republishing over an existing file goes through the same tmp+rename.
  ASSERT_EQ(obs::telemetry_write_metrics(path), 0);
  std::ifstream again(path);
  EXPECT_TRUE(again.good());

  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST_F(TelemetryIntrospect, FlightDumpPublishesAtomically) {
  Context ctx(ag::KernelShape{8, 6}, 1);
  const index_t s = 32;
  auto a = ag::random_matrix(s, s, 1);
  auto b = ag::random_matrix(s, s, 2);
  auto c = ag::random_matrix(s, s, 3);
  for (int i = 0; i < 3; ++i)
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s, 1.0,
              a.data(), s, b.data(), s, 0.0, c.data(), s, ctx);
  const std::string path = "introspect_flight.json";
  {
    std::ofstream stale(path);  // an earlier dump to publish over
    stale << "[{\"torn\":";
  }
  for (int publish = 0; publish < 2; ++publish) {
    ASSERT_EQ(obs::telemetry_dump_flight(path), 0);
    // No staging file is left, and the published array is whole.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "staging file left behind";
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto doc = ag::JsonValue::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(doc.is_array());
    EXPECT_GE(doc.items().size(), 3u);
  }
  std::remove(path.c_str());
}

TEST_F(TelemetryIntrospect, CapiSnapshotGetters) {
  run_batch(48, 16, 2);

  armgemm_scheduler_stats sched;
  ASSERT_EQ(armgemm_scheduler_stats_get(&sched), 1);
  EXPECT_GE(sched.workers, 1);
  EXPECT_GE(sched.submissions, 1ull);
  EXPECT_EQ(sched.tickets_run, sched.tickets_enqueued + sched.tickets_inline);
  EXPECT_EQ(sched.steal_attempts, sched.tickets_stolen + sched.steal_failures);
  EXPECT_GE(sched.utilization, 0.0);
  EXPECT_LE(sched.utilization, 1.0);
  EXPECT_GE(sched.busy_seconds, 0.0);

  armgemm_panel_cache_stats cache;
  ASSERT_EQ(armgemm_panel_cache_stats_get(&cache), 1);
  EXPECT_GE(cache.epochs, 1ull);
  EXPECT_GE(cache.hit_rate, 0.0);
  EXPECT_LE(cache.hit_rate, 1.0);
  EXPECT_GE(cache.peak_bytes, cache.resident_bytes);
}
