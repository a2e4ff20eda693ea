// The process's one host calibration (obs/calibrate host_calibration):
// telemetry's expected-efficiency model reads it, and resolving a
// tunable key never runs it, in either order; injected models win before
// and after the probes run; recorders never wait for a calibration
// another thread is running; and a child forked while its parent
// calibrates takes the calibration over instead of waiting for it.
//
// "Once per process" is checked on host_calibration_runs(), which ctest
// sees fresh: every test runs in its own process. Tests that need a
// process that has not calibrated skip when the binary runs them all in
// one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/knobs.hpp"
#include "obs/calibrate.hpp"
#include "obs/telemetry.hpp"
#include "scoped_knobs.hpp"
#include "tune/tune.hpp"

namespace {

namespace obs = ag::obs;

struct Model {
  double peak = 0, mu = 0, pi = 0;
};

// The process's host calibration, running it if no thread has.
Model host_model() {
  const obs::CalibrationResult& cal = *obs::host_calibration(/*wait=*/true);
  return {cal.peak_gflops, cal.mu, cal.pi};
}

Model telemetry_model() {
  Model m;
  ag::model::CostParams cost;
  EXPECT_TRUE(obs::telemetry_model_params(&m.peak, &cost, nullptr));
  m.mu = cost.mu;
  m.pi = cost.pi;
  return m;
}

void expect_same_bits(const Model& a, const Model& b) {
  EXPECT_EQ(a.peak, b.peak);
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.pi, b.pi);
}

// A tunable key: with no cache file it resolves to the anchor, which
// reads nothing of the host but its kernel registry.
void resolve_tunable_key() {
  ASSERT_NE(ag::tune::resolve(ag::tune::Precision::kF64, 300, 300, 300, 1), nullptr);
}

// Tuner on with no cache file, no injected telemetry model; telemetry is
// off again after each test.
class TelemetryHostModel : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::stats_compiled_in) GTEST_SKIP() << "built with -DARMGEMM_STATS=OFF";
    obs::telemetry_set_model(0, {}, 0);
    obs::telemetry_reset();
  }
  void TearDown() override { obs::telemetry_disable(); }

  agtest::ScopedKnob tune_{ag::Knob::kTune, ag::kTuneModeOn};
  agtest::ScopedKnob cache_{ag::Knob::kTuneCache, ""};
};

TEST_F(TelemetryHostModel, EnableThenResolveCalibratesOnce) {
  obs::telemetry_enable();
  resolve_tunable_key();
  EXPECT_EQ(obs::host_calibration_runs(), 1);
  const Model tel = telemetry_model();
  EXPECT_GT(tel.peak, 0.0);
  expect_same_bits(host_model(), tel);
}

TEST_F(TelemetryHostModel, ResolveThenEnableCalibratesOnce) {
  const int runs_before = obs::host_calibration_runs();
  resolve_tunable_key();
  EXPECT_EQ(obs::host_calibration_runs(), runs_before);  // resolving never calibrates
  obs::telemetry_enable();
  EXPECT_EQ(obs::host_calibration_runs(), 1);
  const Model tel = telemetry_model();
  EXPECT_GT(tel.peak, 0.0);
  expect_same_bits(host_model(), tel);
}

TEST_F(TelemetryHostModel, InjectedModelsWinBeforeAndAfterTheCalibration) {
  const Model injected{10.0, 1e-10, 1e-9};
  const ag::model::CostParams cost{injected.mu, injected.pi, 0.125};

  // Injected before: enabling telemetry reads the injection and runs no
  // probes.
  const int runs_before = obs::host_calibration_runs();
  obs::telemetry_set_model(injected.peak, cost, 1.0);
  obs::telemetry_enable();
  EXPECT_EQ(obs::host_calibration_runs(), runs_before);
  expect_same_bits(telemetry_model(), injected);

  // The probes run for another reader; telemetry keeps its injection.
  const Model host = host_model();
  EXPECT_EQ(obs::host_calibration_runs(), 1);
  expect_same_bits(telemetry_model(), injected);

  // Clearing the injection re-derives telemetry's model from the cached
  // calibration: the probes do not run again.
  obs::telemetry_set_model(0, {}, 0);
  obs::telemetry_enable();
  expect_same_bits(telemetry_model(), host);
  EXPECT_EQ(obs::host_calibration_runs(), 1);

  // Injected after the calibration: telemetry switches to the injection.
  obs::telemetry_set_model(injected.peak, cost, 1.0);
  expect_same_bits(telemetry_model(), injected);
  EXPECT_EQ(obs::host_calibration_runs(), 1);
}

TEST_F(TelemetryHostModel, RecordersDoNotWaitForAnotherThreadsCalibration) {
  if (obs::host_calibration_runs() != 0) GTEST_SKIP() << "needs a process that has not calibrated";
  constexpr int kRecorders = 4;
  std::atomic<bool> go{false};
  std::vector<int> without_model(kRecorders, 0);
  std::vector<int> records(kRecorders, 0);
  std::vector<std::thread> recorders;
  for (int r = 0; r < kRecorders; ++r) {
    recorders.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      obs::telemetry_enable();
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      for (;;) {
        obs::telemetry_record_call(64, 64, 64, 1, obs::ScheduleKind::kSerial, 20e-6,
                                   ag::BlockSizes{});
        ++records[static_cast<std::size_t>(r)];
        if (obs::telemetry_model_params(nullptr, nullptr, nullptr)) break;
        ++without_model[static_cast<std::size_t>(r)];
        if (std::chrono::steady_clock::now() > deadline) break;
      }
    });
  }
  std::thread calibrating([] { obs::host_calibration(/*wait=*/true); });
  // Release the recorders once the other thread has claimed the
  // calibration.
  while (obs::host_calibration_runs() == 0) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  calibrating.join();
  for (std::thread& t : recorders) t.join();

  EXPECT_EQ(obs::host_calibration_runs(), 1);
  expect_same_bits(host_model(), telemetry_model());
  // A recorder that waited for the calibration would record its first
  // call only once the model was ready; these returned without it.
  int total_without = 0, total = 0;
  for (int r = 0; r < kRecorders; ++r) {
    total_without += without_model[static_cast<std::size_t>(r)];
    total += records[static_cast<std::size_t>(r)];
  }
  EXPECT_GT(total_without, 0);
  EXPECT_EQ(obs::telemetry_snapshot().total_calls, static_cast<std::uint64_t>(total));
}

#if !defined(_WIN32)
TEST(HostCalibration, ForkedChildTakesOverItsParentsClaim) {
  if (obs::host_calibration_runs() != 0) GTEST_SKIP() << "needs a process that has not calibrated";
  std::thread calibrating([] { obs::host_calibration(/*wait=*/true); });
  while (obs::host_calibration_runs() == 0) std::this_thread::yield();
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The thread that claimed the calibration does not exist here; a
    // child that waited for it would hang until the alarm killed it.
    alarm(60);
    const obs::CalibrationResult* cal = obs::host_calibration(/*wait=*/true);
    const bool ok = cal != nullptr && cal->peak_gflops > 0 && cal->pi > 0 &&
                    obs::host_calibration_runs() >= 1;
    _exit(ok ? 0 : 1);
  }
  calibrating.join();
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit (signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0) << ")";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(obs::host_calibration_runs(), 1);
}
#endif

}  // namespace
