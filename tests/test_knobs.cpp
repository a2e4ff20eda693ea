// Hardening tests for the env-knob parsers (common/knobs detail layer),
// round-trip tests for the phase/forensics knob accessors, and the check
// of README's knob table against the code's.
//
// The parse functions take the raw string directly (no setenv games), so
// every rejection class — garbage, trailing junk, negatives, overflow,
// NaN — is exercised deterministically, and the one-time stderr warning
// contract is observable via gtest's capture helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>

#include "common/knobs.hpp"

namespace {

using ag::detail::parse_env_double;
using ag::detail::parse_env_int64;
using ag::detail::parse_on_off;

// ---- integer knobs ---------------------------------------------------------

TEST(KnobParseInt, UnsetAndEmptyFallBackSilently) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(42, parse_env_int64("ARMGEMM_TEST", nullptr, 42));
  EXPECT_EQ(42, parse_env_int64("ARMGEMM_TEST", "", 42));
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST(KnobParseInt, ParsesPlainAndTrailingWhitespace) {
  EXPECT_EQ(128, parse_env_int64("ARMGEMM_TEST", "128", 0));
  EXPECT_EQ(0, parse_env_int64("ARMGEMM_TEST", "0", 7));
  EXPECT_EQ(128, parse_env_int64("ARMGEMM_TEST", "128  ", 0));
  EXPECT_EQ(128, parse_env_int64("ARMGEMM_TEST", "  128", 0));  // strtoll skips
}

TEST(KnobParseInt, GarbageFallsBackWithWarning) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(50, parse_env_int64("ARMGEMM_SPIN_US", "fast", 50));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ARMGEMM_SPIN_US"));
  EXPECT_NE(std::string::npos, err.find("'fast'"));
  EXPECT_NE(std::string::npos, err.find("default 50"));
}

TEST(KnobParseInt, TrailingGarbageFallsBack) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(6, parse_env_int64("ARMGEMM_SMALL_MNK", "12abc", 6));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("not an integer"));
}

TEST(KnobParseInt, NegativeFallsBack) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(8, parse_env_int64("ARMGEMM_QUEUE_DEPTH", "-3", 8));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("negative"));
}

TEST(KnobParseInt, OverflowFallsBack) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(8, parse_env_int64("ARMGEMM_QUEUE_DEPTH",
                               "99999999999999999999999999", 8));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("out of range"));
}

TEST(KnobParseInt, Int64MaxIsAccepted) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(max, parse_env_int64("ARMGEMM_TEST", "9223372036854775807", 0));
}

TEST(KnobParseInt, BelowTheRowMinimumFallsBack) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(1024, parse_env_int64("ARMGEMM_QUEUE_DEPTH", "0", 1024, /*min=*/1));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("less than 1"));
  EXPECT_EQ(1, parse_env_int64("ARMGEMM_QUEUE_DEPTH", "1", 1024, /*min=*/1));
}

// ---- floating-point knobs --------------------------------------------------

TEST(KnobParseDouble, UnsetAndEmptyFallBackSilently) {
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(0.25, parse_env_double("ARMGEMM_TEST", nullptr, 0.25));
  EXPECT_DOUBLE_EQ(0.25, parse_env_double("ARMGEMM_TEST", "", 0.25));
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST(KnobParseDouble, ParsesDecimalAndScientific) {
  EXPECT_DOUBLE_EQ(0.5, parse_env_double("ARMGEMM_TEST", "0.5", 1.0));
  EXPECT_DOUBLE_EQ(1500.0, parse_env_double("ARMGEMM_TEST", "1.5e3", 1.0));
}

TEST(KnobParseDouble, GarbageFallsBackWithWarning) {
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(0.25,
                   parse_env_double("ARMGEMM_DRIFT_THRESHOLD", "lots", 0.25));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ARMGEMM_DRIFT_THRESHOLD"));
  EXPECT_NE(std::string::npos, err.find("not a number"));
}

TEST(KnobParseDouble, TrailingGarbageFallsBack) {
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(8.0,
                   parse_env_double("ARMGEMM_SLOW_CALL_FACTOR", "3x", 8.0));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("not a number"));
}

TEST(KnobParseDouble, NegativeFallsBack) {
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(60.0,
                   parse_env_double("ARMGEMM_FORENSICS_INTERVAL", "-1", 60.0,
                                    /*allow_zero=*/true));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("negative"));
}

TEST(KnobParseDouble, NanAndInfinityFallBack) {
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(0.25, parse_env_double("ARMGEMM_TEST", "nan", 0.25));
  EXPECT_DOUBLE_EQ(0.25, parse_env_double("ARMGEMM_TEST", "inf", 0.25));
  EXPECT_DOUBLE_EQ(0.25, parse_env_double("ARMGEMM_TEST", "1e999", 0.25));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("out of range"));
}

TEST(KnobParseDouble, ZeroPolicyFollowsAllowZero) {
  // Knobs where 0 means "disabled" accept it; strictly-positive knobs
  // (e.g. the drift threshold) reject it with the warning.
  EXPECT_DOUBLE_EQ(0.0, parse_env_double("ARMGEMM_TEST", "0", 60.0,
                                         /*allow_zero=*/true));
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(0.25, parse_env_double("ARMGEMM_TEST", "0", 0.25,
                                          /*allow_zero=*/false));
  EXPECT_NE(std::string::npos,
            testing::internal::GetCapturedStderr().find("not positive"));
}

// ---- on/off knobs ----------------------------------------------------------

TEST(KnobParseOnOff, AcceptsEverySpellingInAnyCase) {
  for (const char* on : {"1", "on", "ON", "On", "true", "TRUE", "True", "yes", "YES",
                         "Yes", " on", "yes\t", " 1 "}) {
    SCOPED_TRACE(on);
    EXPECT_EQ(parse_on_off(on), true);
  }
  for (const char* off : {"0", "off", "OFF", "Off", "false", "FALSE", "False", "no", "NO",
                          "No", " off", "no\n", " 0 "}) {
    SCOPED_TRACE(off);
    EXPECT_EQ(parse_on_off(off), false);
  }
}

TEST(KnobParseOnOff, RejectsEverythingElse) {
  for (const char* bad : {"", " ", "2", "-1", "01", "o", "of", "onn", "offf", "tru", "y", "n",
                          "enable", "analytic", "on off"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_on_off(bad), std::nullopt);
  }
}

// ---- accessor round-trips --------------------------------------------------

TEST(KnobAccessors, PhaseAttributionRoundTrips) {
  const bool prev = ag::phase_attribution_enabled();
  ag::set_knob(ag::Knob::kPhases, false);
  EXPECT_FALSE(ag::phase_attribution_enabled());
  ag::set_knob(ag::Knob::kPhases, true);
  EXPECT_TRUE(ag::phase_attribution_enabled());
  ag::set_knob(ag::Knob::kPhases, prev);
}

TEST(KnobAccessors, SlowCallFactorClampsNegativeToDisabled) {
  const double prev = ag::slow_call_factor();
  ag::set_knob(ag::Knob::kSlowCallFactor, 3.5);
  EXPECT_DOUBLE_EQ(3.5, ag::slow_call_factor());
  ag::set_knob(ag::Knob::kSlowCallFactor, -2.0);  // negative means "disable", stored as 0
  EXPECT_DOUBLE_EQ(0.0, ag::slow_call_factor());
  ag::set_knob(ag::Knob::kSlowCallFactor, prev);
}

TEST(KnobAccessors, ForensicsDirRoundTrips) {
  const std::string prev = ag::forensics_dir();
  ag::set_knob(ag::Knob::kForensicsDir, "/tmp/armgemm-forensics-test");
  EXPECT_EQ("/tmp/armgemm-forensics-test", ag::forensics_dir());
  ag::set_knob(ag::Knob::kForensicsDir, "");
  EXPECT_EQ("", ag::forensics_dir());
  ag::set_knob(ag::Knob::kForensicsDir, prev);
}

TEST(KnobAccessors, ForensicsIntervalClampsNegativeToUnlimited) {
  const double prev = ag::forensics_interval_s();
  ag::set_knob(ag::Knob::kForensicsInterval, 120.0);
  EXPECT_DOUBLE_EQ(120.0, ag::forensics_interval_s());
  ag::set_knob(ag::Knob::kForensicsInterval, -5.0);  // negative means "no limit"
  EXPECT_DOUBLE_EQ(0.0, ag::forensics_interval_s());
  ag::set_knob(ag::Knob::kForensicsInterval, prev);
}

// ---- the knob table ---------------------------------------------------------

TEST(KnobTable, DefaultsAreValuesOfTheirRowsAsKnobTextWritesThem) {
  for (int i = 0; i < ag::kKnobCount; ++i) {
    const ag::Knob k = static_cast<ag::Knob>(i);
    const ag::KnobRow& row = ag::knob_row(k);
    SCOPED_TRACE(row.env);
    EXPECT_EQ(ag::find_knob(row.env), k);
    const std::string prev = ag::knob_text(k);
    ASSERT_TRUE(ag::set_knob(k, std::string(row.fallback)));
    EXPECT_EQ(ag::knob_text(k), row.fallback);
    ag::set_knob(k, prev);
  }
}

// ---- README -----------------------------------------------------------------

// README's "Runtime knobs" table, as env name -> default cell (backticks
// stripped, "_(unset)_" read as "").
std::map<std::string, std::string> readme_knob_defaults() {
  std::ifstream in(ARMGEMM_README);
  EXPECT_TRUE(in.good()) << "cannot read " << ARMGEMM_README;
  std::map<std::string, std::string> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Runtime knobs";
    if (!in_section || line.rfind("| `ARMGEMM_", 0) != 0) continue;
    const auto cell = [&line](std::size_t index) {
      std::size_t begin = 0;
      for (std::size_t i = 0; i <= index; ++i) begin = line.find('|', begin) + 1;
      std::string_view text(line.data() + begin, line.find('|', begin) - begin);
      while (!text.empty() && (text.front() == ' ' || text.front() == '`')) text.remove_prefix(1);
      while (!text.empty() && (text.back() == ' ' || text.back() == '`')) text.remove_suffix(1);
      return std::string(text == "_(unset)_" ? "" : text);
    };
    EXPECT_TRUE(rows.emplace(cell(0), cell(1)).second) << "README lists " << cell(0) << " twice";
  }
  return rows;
}

TEST(KnobReadme, RuntimeKnobsTableMatchesTheKnobTable) {
  std::map<std::string, std::string> readme = readme_knob_defaults();
  for (int i = 0; i < ag::kKnobCount; ++i) {
    const ag::KnobRow& row = ag::knob_row(static_cast<ag::Knob>(i));
    const auto it = readme.find(row.env);
    if (it == readme.end()) {
      ADD_FAILURE() << "README's knob table has no row for " << row.env;
      continue;
    }
    EXPECT_EQ(it->second, row.fallback) << "README's default for " << row.env;
    readme.erase(it);
  }
  for (const auto& [env, fallback] : readme)
    ADD_FAILURE() << "README lists " << env << ", which is not in the knob table";
}

}  // namespace
