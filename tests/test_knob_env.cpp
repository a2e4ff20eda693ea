// Process-level knob checks: the environment is the input, so each check
// is its own ctest with an ENVIRONMENT property (tests/CMakeLists.txt).
// A plain program rather than a gtest filter, so a renamed check cannot
// match nothing and pass.
//
//   test_knob_env every-row      every ARMGEMM_* row set to a valid
//                                non-default value; a row whose variable
//                                is missing fails
//   test_knob_env telemetry-off  ARMGEMM_TELEMETRY=off keeps telemetry off
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/knobs.hpp"
#include "knob_getters.hpp"
#include "obs/telemetry.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "test_knob_env: FAILED: %s\n", what.c_str());
  ++failures;
}

void every_row() {
  for (int i = 0; i < ag::kKnobCount; ++i) {
    const ag::Knob k = static_cast<ag::Knob>(i);
    const ag::KnobRow& row = ag::knob_row(k);
    const char* raw = std::getenv(row.env);
    if (raw == nullptr || raw[0] == '\0') {
      check(false, std::string(row.env) + " is not set; add it to knob_env_every_row");
      continue;
    }
    check(raw != std::string(row.fallback), std::string(row.env) + "=" + raw + " is the default");
    check(agtest::typed_getter_text(k) == raw, std::string(row.env) + "=" + raw +
                                                   " reads back as " +
                                                   agtest::typed_getter_text(k));
    check(ag::knob_text(k) == raw, std::string(row.env) + " renders as " + ag::knob_text(k));
  }
  // ARMGEMM_SMALL_MNK is in no tune group: nothing at run time writes it.
  check(!ag::tuner_apply(ag::Knob::kSmallMnk, 3), "the tuner wrote ARMGEMM_SMALL_MNK");
  // An environment value pins its tune group against the autotuner.
  check(ag::knob_pinned(ag::Knob::kPrea) && ag::knob_pinned(ag::Knob::kPreb),
        "ARMGEMM_PREA/PREB did not pin");
}

void telemetry_off() {
  const char* raw = std::getenv("ARMGEMM_TELEMETRY");
  check(raw != nullptr && std::strcmp(raw, "off") == 0, "ARMGEMM_TELEMETRY is not 'off'");
  check(!ag::obs::telemetry_enabled(), "ARMGEMM_TELEMETRY=off turned telemetry on");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "every-row") {
    every_row();
  } else if (mode == "telemetry-off") {
    telemetry_off();
  } else {
    std::fprintf(stderr, "usage: test_knob_env every-row|telemetry-off\n");
    return 2;
  }
  if (failures == 0) std::printf("test_knob_env %s: ok\n", mode.c_str());
  return failures == 0 ? 0 : 1;
}
