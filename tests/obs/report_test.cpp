// Unit tests for the run-report layer: the stats-absorption glue
// (add_solver_stats / refresh_process_metrics publishing into the global
// registry under the stable dotted names) and the report JSON schema shape
// the CLI emits for --report-json (the byte-level golden lives in
// tests/cli/cli_report_test.sh; this covers the schema contract itself).
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace satdiag::obs {
namespace {

TEST(ReportGlueTest, AddSolverStatsAccumulatesSatCounters) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t before = reg.counter("sat.conflicts").value();
  sat::Solver::Stats stats;
  stats.conflicts = 11;
  stats.decisions = 22;
  add_solver_stats(stats);
  EXPECT_EQ(reg.counter("sat.conflicts").value(), before + 11);
  add_solver_stats(stats);
  EXPECT_EQ(reg.counter("sat.conflicts").value(), before + 22);
}

TEST(ReportGlueTest, RefreshRegistersTheStandardCatalogue) {
  refresh_process_metrics();
  const auto samples = MetricsRegistry::global().snapshot();
  const auto has = [&](const std::string& name) {
    for (const auto& s : samples) {
      if (s.name == name) return true;
    }
    return false;
  };
  // One stable key per subsystem even when that path never ran.
  EXPECT_TRUE(has("sat.conflicts"));
  EXPECT_TRUE(has("sat.tier_core"));
  EXPECT_TRUE(has("cache.hits"));
  EXPECT_TRUE(has("cnf.copies_stamped"));
  EXPECT_TRUE(has("exec.shards_run"));
  EXPECT_TRUE(has("cache.builds"));
}

TEST(RunReportTest, JsonHasTheSchemaEnvelope) {
  set_ring_capacity(1 << 10);
  reset_tracing();
  set_tracing_enabled(true);
  {
    Span load("phase.load");
  }
  { Span solve("bsat.bound", "bound", 1); }
  set_tracing_enabled(false);

  RunReport report;
  report.command = "diagnose";
  report.config["approach"] = "bsat";
  report.config["k"] = "2";
  report.wall_seconds = 1.25;
  report.result_json = R"({"solutions":3})";
  std::ostringstream os;
  report.write_json(os, /*indent=*/0);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"schema\":\"satdiag.report\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"diagnose\""), std::string::npos);
  EXPECT_NE(json.find("\"approach\":\"bsat\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":1.25"), std::string::npos);
  // phase.load lands in "phases"; bsat.bound only in "spans".
  EXPECT_NE(json.find("\"phases\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase.load\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bsat.bound\""), std::string::npos);
  EXPECT_LT(json.find("\"phases\":["), json.find("\"name\":\"phase.load\""));
  const std::size_t spans_at = json.find("\"spans\":[");
  ASSERT_NE(spans_at, std::string::npos);
  EXPECT_GT(json.find("\"name\":\"bsat.bound\""), spans_at);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"result\":{\"solutions\":3}"), std::string::npos);

  reset_tracing();
}

TEST(RunReportTest, EmptyResultSerializesAsEmptyObject) {
  RunReport report;
  report.command = "stats";
  std::ostringstream os;
  report.write_json(os, /*indent=*/0);
  EXPECT_NE(os.str().find("\"result\":{}"), std::string::npos);
}

TEST(RunReportTest, PhasesOnlyContainPhasePrefixedSpans) {
  set_ring_capacity(1 << 10);
  reset_tracing();
  set_tracing_enabled(true);
  { Span s("cache.hit"); }
  set_tracing_enabled(false);

  RunReport report;
  report.command = "diagnose";
  std::ostringstream os;
  report.write_json(os, /*indent=*/0);
  const std::string json = os.str();
  const std::size_t phases_at = json.find("\"phases\":[");
  const std::size_t spans_at = json.find("\"spans\":[");
  ASSERT_NE(phases_at, std::string::npos);
  ASSERT_NE(spans_at, std::string::npos);
  // "phases" must be the empty array: cache.hit is not "phase."-prefixed.
  EXPECT_EQ(json.substr(phases_at, 12), "\"phases\":[],");
  EXPECT_NE(json.find("\"name\":\"cache.hit\""), std::string::npos);

  reset_tracing();
}

}  // namespace
}  // namespace satdiag::obs
