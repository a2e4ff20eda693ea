// The metrics table (obs/metrics): the Prometheus and JSON renderings of
// two synthetic snapshots against the golden files in tests/golden/,
// label-value escaping on a real recording lane, and README's metrics
// reference against the table.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/matrix.hpp"
#include "core/gemm.hpp"
#include "metrics_snapshots.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "scoped_knobs.hpp"

namespace obs = ag::obs;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden(const std::string& name) {
  return slurp(std::string(ARMGEMM_GOLDEN_DIR) + "/" + name);
}

// A JSON document re-emitted with sorted keys and every number at 9
// significant digits: two documents have the same canonical text exactly
// when they parse to the same tree with numbers equal at those digits.
std::string canonical_json(const std::string& text) {
  std::string err;
  const ag::JsonValue doc = ag::JsonValue::parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  ag::JsonWriter w(9);
  w.value(doc);
  return w.str();
}

// ---- golden renderings --------------------------------------------------------

TEST(MetricsGolden, FullSnapshotPrometheusMatchesGolden) {
  EXPECT_EQ(obs::render_metrics(agtest::full_snapshot(), obs::MetricsFormat::kPrometheus),
            golden("full.prom"));
}

TEST(MetricsGolden, MinimalSnapshotPrometheusMatchesGolden) {
  EXPECT_EQ(obs::render_metrics(agtest::minimal_snapshot(), obs::MetricsFormat::kPrometheus),
            golden("minimal.prom"));
}

// The renderers format only the snapshot they are given, so the JSON
// goldens hold in the -DARMGEMM_STATS=OFF build too.
TEST(MetricsGolden, FullSnapshotJsonMatchesGolden) {
  EXPECT_EQ(canonical_json(obs::render_metrics(agtest::full_snapshot(), obs::MetricsFormat::kJson)),
            canonical_json(golden("full.json")));
}

TEST(MetricsGolden, MinimalSnapshotJsonMatchesGolden) {
  EXPECT_EQ(
      canonical_json(obs::render_metrics(agtest::minimal_snapshot(), obs::MetricsFormat::kJson)),
      canonical_json(golden("minimal.json")));
}

// `members` wrapped into a JSON object's text.
std::string as_object(const std::string& members) {
  std::string text = "{";
  text += members;
  text += '}';
  return text;
}

TEST(MetricsGolden, RuntimeMembersAreTheDocumentsRuntimeSections) {
  // The forensics bundle splices these members into its own object.
  const obs::TelemetrySnapshot s = agtest::full_snapshot();
  const ag::JsonValue runtime =
      ag::JsonValue::parse(as_object(obs::render_metrics(s, obs::MetricsFormat::kJsonRuntime)));
  const ag::JsonValue doc = ag::JsonValue::parse(obs::render_metrics(s, obs::MetricsFormat::kJson));
  for (const char* key : {"scheduler", "panel_cache", "tune", "topology"}) {
    ag::JsonWriter a(9), b(9);
    a.value(runtime[key]);
    b.value(doc[key]);
    EXPECT_TRUE(runtime[key].is_object()) << key;
    EXPECT_EQ(a.str(), b.str()) << key;
  }
  const ag::JsonValue none = ag::JsonValue::parse(as_object(
      obs::render_metrics(agtest::minimal_snapshot(), obs::MetricsFormat::kJsonRuntime)));
  for (const char* key : {"scheduler", "panel_cache", "tune", "topology"}) {
    EXPECT_TRUE(none.has(key)) << key;
    EXPECT_TRUE(none[key].is_null()) << key;
  }
}

// ---- label escaping -------------------------------------------------------------

TEST(MetricsEscape, LaneNameIsEscapedInItsLabelValue) {
  if (!obs::stats_compiled_in) GTEST_SKIP() << "built with -DARMGEMM_STATS=OFF";
  const std::string saved_path = ag::metrics_path();
  ag::set_knob(ag::Knob::kMetricsPath, "");
  obs::telemetry_set_model(10.0, ag::model::CostParams{1e-10, 1e-9, 0.125}, 1.0);
  obs::telemetry_enable();
  obs::telemetry_reset();

  // A fresh thread gets its own lane; rank 0 of its 2-thread call
  // records the barrier wait there, on the blocked path.
  agtest::ScopedKnob blocked_path(ag::Knob::kSmallMnk, 0);
  const std::string lane = "svc \"a\\b\"\n lane";
  std::thread([&lane] {
    obs::telemetry_register_thread(lane);
    ag::Context ctx(ag::KernelShape{8, 6}, 2);
    const ag::index_t s = 96;
    auto a = ag::random_matrix(s, s, 601);
    auto b = ag::random_matrix(s, s, 602);
    auto c = ag::random_matrix(s, s, 603);
    ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, s, s, s, 1.0,
              a.data(), a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), ctx);
  }).join();

  const std::string prom = obs::telemetry_render_prometheus();
  EXPECT_NE(prom.find("armgemm_barrier_wait_seconds_sum{worker=\"svc \\\"a\\\\b\\\"\\n lane\"} "),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find(lane), std::string::npos) << "the raw name reached the text";

  std::string err;
  const ag::JsonValue doc = ag::JsonValue::parse(obs::telemetry_render_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  bool found = false;
  for (const ag::JsonValue& w : doc["workers"].items()) found |= w["name"].as_string() == lane;
  EXPECT_TRUE(found) << "the JSON document lost the lane's name";

  obs::telemetry_disable();
  obs::telemetry_reset();
  ag::set_knob(ag::Knob::kMetricsPath, saved_path);
}

// ---- README -----------------------------------------------------------------

struct ReadmeRow {
  std::string type;
  std::vector<std::string> labels;
};

// README's "Metrics reference" table, as family name -> type and label
// keys (backticks stripped; "—" is no label).
std::map<std::string, ReadmeRow> readme_metrics() {
  std::ifstream in(ARMGEMM_README);
  EXPECT_TRUE(in.good()) << "cannot read " << ARMGEMM_README;
  std::map<std::string, ReadmeRow> rows;
  bool in_section = false;
  const auto trim = [](std::string_view text) {
    while (!text.empty() && (text.front() == ' ' || text.front() == '`')) text.remove_prefix(1);
    while (!text.empty() && (text.back() == ' ' || text.back() == '`')) text.remove_suffix(1);
    return std::string(text);
  };
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Metrics reference";
    if (!in_section || line.rfind("| `armgemm_", 0) != 0) continue;
    std::vector<std::string> cells;
    for (std::size_t begin = 1, end; (end = line.find('|', begin)) != std::string::npos;
         begin = end + 1)
      cells.push_back(line.substr(begin, end - begin));
    if (cells.size() < 4) {
      ADD_FAILURE() << "README row with fewer than four cells: " << line;
      continue;
    }
    ReadmeRow row{trim(cells[1]), {}};
    std::istringstream labels(cells[2]);
    for (std::string key; std::getline(labels, key, ',');)
      if (trim(key) != "—") row.labels.push_back(trim(key));
    EXPECT_TRUE(rows.emplace(trim(cells[0]), row).second)
        << "README lists " << cells[0] << " twice";
  }
  return rows;
}

TEST(MetricsReadme, MetricsReferenceMatchesTheMetricsTable) {
  std::map<std::string, ReadmeRow> readme = readme_metrics();
  for (const obs::MetricFamily& f : obs::metric_families()) {
    const auto it = readme.find(f.name);
    if (it == readme.end()) {
      ADD_FAILURE() << "README's metrics reference has no row for " << f.name;
      continue;
    }
    EXPECT_EQ(it->second.type, f.type) << "README's type of " << f.name;
    EXPECT_EQ(it->second.labels, f.labels) << "README's labels of " << f.name;
    readme.erase(it);
  }
  for (const auto& [name, row] : readme)
    ADD_FAILURE() << "README lists " << name << ", which is not in the metrics table";
}

}  // namespace
