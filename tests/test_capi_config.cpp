// The C API's knob entry points, armgemm_config_set / armgemm_config_get,
// driven over every row of the knob table: what they accept, what they
// reject, and that a value set by name reaches the row's typed getter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "capi/armgemm_cblas.h"
#include "common/knobs.hpp"
#include "knob_getters.hpp"
#include "scoped_knobs.hpp"

namespace {

using ag::Knob;

// A valid value other than the default, per row, written as knob_text
// writes it.
std::string non_default_text(Knob k) {
  switch (k) {
    case Knob::kSpinUs: return "7";
    case Knob::kSmallMnk: return "9";
    case Knob::kPrea: return "512";
    case Knob::kPreb: return "12288";
    case Knob::kTelemetry: return "1";
    case Knob::kMetricsPath: return "/nonexistent/armgemm.prom";
    case Knob::kFlightDepth: return "64";
    case Knob::kDriftThreshold: return "0.1";
    case Knob::kQueueDepth: return "33";
    case Knob::kPanelCacheMb: return "5";
    case Knob::kTune: return "0";
    case Knob::kTuneCache: return "/nonexistent/tune.json";
    case Knob::kTuneBudgetMs: return "250";
    case Knob::kPhases: return "0";
    case Knob::kSlowCallFactor: return "2.5";
    case Knob::kForensicsDir: return "/nonexistent/forensics";
    case Knob::kForensicsInterval: return "0.3";
    case Knob::kCpuClasses: return "2x2.0,2x1.0";
    case Knob::kNumaNodes: return "2";
    case Knob::kAffinity: return "1";
    case Knob::kPanelReplicateKb: return "77";
    case Knob::kWeightedSchedule: return "0";
    case Knob::kCrossNodeSteal: return "5";
    case Knob::kPmu: return "0";
    case Knob::kCount: break;
  }
  return "?";
}

// Text that is not a value of the type. Path and spec rows take any text.
std::vector<std::string> invalid_texts(ag::KnobType type) {
  switch (type) {
    case ag::KnobType::kInt: return {"", "abc", "12abc", "1.5", "0x10", "99999999999999999999"};
    case ag::KnobType::kDouble: return {"", "lots", "3x", "nan", "inf", "1e999"};
    case ag::KnobType::kOnOff: return {"", "2", "-1", "maybe", "onn", "analytic"};
    case ag::KnobType::kText: break;
  }
  return {};
}

std::string config_get(const char* name) {
  const long long len = armgemm_config_get(name, nullptr, 0);
  EXPECT_GE(len, 0) << name;
  std::string text(static_cast<std::size_t>(std::max(len, 0LL)) + 1, '\0');
  armgemm_config_get(name, text.data(), text.size());
  text.pop_back();
  return text;
}

// Runs `fn` on every row, restoring each row's value afterwards.
template <typename Fn>
void for_each_row(Fn&& fn) {
  for (int i = 0; i < ag::kKnobCount; ++i) {
    const Knob k = static_cast<Knob>(i);
    SCOPED_TRACE(ag::knob_row(k).env);
    agtest::ScopedKnob restore(k, ag::knob_text(k));
    fn(k, ag::knob_row(k));
  }
}

TEST(KnobConfig, GetTextFedBackToSetChangesNothing) {
  for_each_row([](Knob k, const ag::KnobRow& row) {
    const std::string before = config_get(row.env);
    EXPECT_EQ(agtest::typed_getter_text(k), before);
    EXPECT_EQ(armgemm_config_set(row.env, before.c_str()), 0);
    EXPECT_EQ(config_get(row.env), before);
    EXPECT_EQ(agtest::typed_getter_text(k), before);
  });
}

TEST(KnobConfig, NonDefaultValueReachesTheTypedGetter) {
  for_each_row([](Knob k, const ag::KnobRow& row) {
    const std::string value = non_default_text(k);
    ASSERT_NE(value, row.fallback);
    ASSERT_EQ(armgemm_config_set(row.env, value.c_str()), 0);
    EXPECT_EQ(agtest::typed_getter_text(k), value);
    EXPECT_EQ(config_get(row.env), value);
  });
}

TEST(KnobConfig, DecimalsRoundTripExactly) {
  agtest::ScopedKnob restore(Knob::kForensicsInterval, ag::forensics_interval_s());
  for (const double v : {0.1, 0.3, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 123456.789, 4503599627370495.5}) {
    ag::set_knob(Knob::kForensicsInterval, v);
    const std::string text = config_get("ARMGEMM_FORENSICS_INTERVAL");
    ag::set_knob(Knob::kForensicsInterval, 0.0);
    ASSERT_EQ(armgemm_config_set("ARMGEMM_FORENSICS_INTERVAL", text.c_str()), 0);
    EXPECT_EQ(ag::forensics_interval_s(), v) << text;
  }
}

TEST(KnobConfig, TextOfAnotherTypeIsRejectedAndChangesNothing) {
  for_each_row([](Knob k, const ag::KnobRow& row) {
    const std::string before = config_get(row.env);
    for (const std::string& bad : invalid_texts(row.type)) {
      SCOPED_TRACE("'" + bad + "'");
      EXPECT_EQ(armgemm_config_set(row.env, bad.c_str()), -1);
      EXPECT_EQ(config_get(row.env), before);
      EXPECT_EQ(agtest::typed_getter_text(k), before);
    }
  });
}

TEST(KnobConfig, NumbersOutsideTheRangeStoreAsCodeStoresThem) {
  agtest::ScopedKnob spin(Knob::kSpinUs, 50), depth(Knob::kQueueDepth, 1024),
      drift(Knob::kDriftThreshold, 0.5), slow(Knob::kSlowCallFactor, 8.0),
      affinity(Knob::kAffinity, false), tune(Knob::kTune, ag::kTuneModeOff);
  EXPECT_EQ(armgemm_config_set("ARMGEMM_SPIN_US", "-5"), 0);
  EXPECT_EQ(ag::spin_wait_us(), 0);
  EXPECT_EQ(armgemm_config_set("ARMGEMM_QUEUE_DEPTH", "0"), 0);
  EXPECT_EQ(ag::queue_depth(), 1);
  EXPECT_EQ(armgemm_config_set("ARMGEMM_DRIFT_THRESHOLD", "0"), 0);
  EXPECT_EQ(ag::drift_threshold(), 0.25);  // no positive value to clamp to: the default
  EXPECT_EQ(armgemm_config_set("ARMGEMM_SLOW_CALL_FACTOR", "-2"), 0);
  EXPECT_EQ(ag::slow_call_factor(), 0.0);
  // Code passes numbers the text grammar does not spell.
  EXPECT_TRUE(ag::set_knob(Knob::kAffinity, 5));
  EXPECT_TRUE(ag::affinity_enabled());
  EXPECT_TRUE(ag::set_knob(Knob::kTune, 7));
  EXPECT_EQ(ag::tune_mode(), ag::kTuneModeOn);
  // The value's kind must fit the row: no number for a path, no fraction
  // for an integer.
  EXPECT_FALSE(ag::set_knob(Knob::kForensicsDir, 3));
  EXPECT_FALSE(ag::set_knob(Knob::kSpinUs, 2.5));
}

TEST(KnobConfig, UnknownOrNullNameAndNullValueAreRejected) {
  const std::string spin = config_get("ARMGEMM_SPIN_US");
  const std::string path = config_get("ARMGEMM_METRICS_PATH");
  EXPECT_EQ(armgemm_config_set("ARMGEMM_NO_SUCH_KNOB", "1"), -1);
  EXPECT_EQ(armgemm_config_set("armgemm_spin_us", "1"), -1);  // names are exact
  EXPECT_EQ(armgemm_config_set(nullptr, "1"), -1);
  EXPECT_EQ(armgemm_config_set("ARMGEMM_SPIN_US", nullptr), -1);
  EXPECT_EQ(armgemm_config_set("ARMGEMM_METRICS_PATH", nullptr), -1);
  EXPECT_EQ(config_get("ARMGEMM_SPIN_US"), spin);
  EXPECT_EQ(config_get("ARMGEMM_METRICS_PATH"), path);
  char buf[8] = "x";
  EXPECT_EQ(armgemm_config_get("ARMGEMM_NO_SUCH_KNOB", buf, sizeof buf), -1);
  EXPECT_EQ(armgemm_config_get(nullptr, buf, sizeof buf), -1);
  EXPECT_STREQ(buf, "x");
}

TEST(KnobConfig, GetFollowsTheSnprintfContract) {
  agtest::ScopedKnob dir(Knob::kForensicsDir, "/tmp/abcdef");
  EXPECT_EQ(armgemm_config_get("ARMGEMM_FORENSICS_DIR", nullptr, 0), 11);
  EXPECT_EQ(armgemm_config_get("ARMGEMM_FORENSICS_DIR", nullptr, 64), 11);
  char buf[5] = {'?', '?', '?', '?', '?'};
  EXPECT_EQ(armgemm_config_get("ARMGEMM_FORENSICS_DIR", buf, 0), 11);
  EXPECT_EQ(buf[0], '?');  // len 0 writes nothing
  EXPECT_EQ(armgemm_config_get("ARMGEMM_FORENSICS_DIR", buf, sizeof buf), 11);
  EXPECT_STREQ(buf, "/tmp");  // len-1 bytes plus the NUL
  EXPECT_EQ(armgemm_config_get("ARMGEMM_FORENSICS_DIR", buf, 1), 11);
  EXPECT_EQ(buf[0], '\0');
  // Numeric rows follow the same contract.
  agtest::ScopedKnob preb(Knob::kPreb, 24576);
  char num[3];
  EXPECT_EQ(armgemm_config_get("ARMGEMM_PREB", num, sizeof num), 5);
  EXPECT_STREQ(num, "24");
}

TEST(KnobConcurrency, StringRowSetAndReadFromTwoThreads) {
  agtest::ScopedKnob restore(Knob::kForensicsDir, "");
  const std::string a(200, 'a');  // long enough to live on the heap
  const std::string b(300, 'b');
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i)
      armgemm_config_set("ARMGEMM_FORENSICS_DIR", (i % 2 ? a : b).c_str());
    done.store(true, std::memory_order_release);
  });
  int torn = 0;
  for (int reads = 0; !done.load(std::memory_order_acquire); ++reads) {
    char buf[512];
    const long long len = armgemm_config_get("ARMGEMM_FORENSICS_DIR", buf, sizeof buf);
    const std::string seen = reads % 2 ? std::string(buf) : ag::forensics_dir();
    const bool whole = seen.empty() || seen == a || seen == b;
    if (!whole || (reads % 2 && len != static_cast<long long>(seen.size()))) ++torn;
  }
  writer.join();
  EXPECT_EQ(torn, 0);
  const std::string last = ag::forensics_dir();
  EXPECT_TRUE(last == a || last == b);
}

}  // namespace
