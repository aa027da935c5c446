#include "obs/report.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lbsa::obs {
namespace {

RunReport sample_report() {
  RunReport report;
  report.tool = "unit_test";
  report.task = "dac3";
  report.params = {{"threads", "8"}, {"engine", "\"workstealing\""}};
  report.wall_seconds = 0.125;
  set_metrics_enabled(true);
  Registry registry;
  registry.counter("t.nodes")->add(42);
  registry.counter("t.probes", Stability::kVolatile)->add(7);
  registry.histogram("t.sizes")->observe(5);
  report.metrics = registry.snapshot();
  set_metrics_enabled(false);
  JsonWriter w;
  w.begin_object();
  w.key("nodes");
  w.value_uint(42);
  w.end_object();
  report.sections.emplace_back("explorer", std::move(w).str());
  return report;
}

TEST(RunReportSchema, SerializedReportValidates) {
  const std::string json = sample_report().to_json();
  const Status s = validate_run_report_json(json);
  EXPECT_TRUE(s.is_ok()) << s.to_string() << "\n" << json;
}

TEST(RunReportSchema, CarriesVersionToolAndMetrics) {
  auto parsed = parse_json(sample_report().to_json());
  ASSERT_TRUE(parsed.is_ok());
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.find("run_report_version")->int_value,
            RunReport::kSchemaVersion);
  EXPECT_EQ(root.find("tool")->string_value, "unit_test");
  const JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("t.nodes")->int_value, 42);
  // Volatile metrics live under metrics.volatile, not among the stable rows.
  EXPECT_EQ(metrics->find("counters")->find("t.probes"), nullptr);
  EXPECT_EQ(
      metrics->find("volatile")->find("counters")->find("t.probes")->int_value,
      7);
  EXPECT_EQ(root.find("sections")->find("explorer")->find("nodes")->int_value,
            42);
}

TEST(RunReportSchema, RejectsMalformedDocuments) {
  EXPECT_FALSE(validate_run_report_json("not json").is_ok());
  EXPECT_FALSE(validate_run_report_json("[]").is_ok());
  EXPECT_FALSE(validate_run_report_json("{}").is_ok());
  // Wrong version.
  RunReport report = sample_report();
  std::string json = report.to_json();
  const std::string needle = "\"run_report_version\":" +
                             std::to_string(RunReport::kSchemaVersion);
  ASSERT_NE(json.find(needle), std::string::npos);
  json.replace(json.find(needle), needle.size(), "\"run_report_version\":99");
  EXPECT_FALSE(validate_run_report_json(json).is_ok());
  // Empty tool name.
  report.tool = "";
  EXPECT_FALSE(validate_run_report_json(report.to_json()).is_ok());
}

TEST(RunReportSchema, WriteRunReportRefusesInvalidAndWritesValid) {
  RunReport bad = sample_report();
  bad.tool = "";
  EXPECT_FALSE(
      write_run_report(bad, ::testing::TempDir() + "/lbsa_obs_invalid.json")
          .is_ok());

  const std::string path = ::testing::TempDir() + "/lbsa_obs_report.json";
  const Status s = write_run_report(sample_report(), path);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(validate_run_report_json(buffer.str()).is_ok());
  EXPECT_EQ(buffer.str().back(), '\n');
  std::remove(path.c_str());
}

// Completeness guard: the explorer section's full-graph estimate (and the
// ratio derived from it) only counts visited orbits, so a report carrying
// either field next to truncated/interrupted = true is a producer bug.
TEST(RunReportSchema, RejectsReductionRatioOnIncompleteGraphs) {
  auto with_explorer_section = [](const std::string& section_json) {
    RunReport report = sample_report();
    report.sections.clear();
    report.sections.emplace_back("explorer", section_json);
    return report.to_json();
  };
  // Complete graph: ratio fine.
  EXPECT_TRUE(validate_run_report_json(
                  with_explorer_section("{\"truncated\":false,"
                                        "\"interrupted\":false,"
                                        "\"nodes_full_estimate\":256,"
                                        "\"reduction_ratio\":1.8}"))
                  .is_ok());
  // Truncated or interrupted: both completeness-only fields rejected.
  for (const char* flag : {"truncated", "interrupted"}) {
    for (const char* field :
         {"\"reduction_ratio\":1.8", "\"nodes_full_estimate\":256"}) {
      const std::string json = with_explorer_section(
          "{\"" + std::string(flag) + "\":true," + field + "}");
      const Status s = validate_run_report_json(json);
      EXPECT_FALSE(s.is_ok()) << json;
      EXPECT_NE(s.message().find("incomplete"), std::string::npos)
          << s.to_string();
    }
    // The flags alone (without the fields) stay valid.
    EXPECT_TRUE(validate_run_report_json(with_explorer_section(
                    "{\"" + std::string(flag) + "\":true,\"nodes\":79}"))
                    .is_ok());
  }
}

// v2 additions: every histogram row must carry a quantiles object, and the
// optional sections.timeseries (heartbeat samples folded into the report)
// must be internally consistent.
TEST(RunReportSchema, RequiresHistogramQuantiles) {
  std::string json = sample_report().to_json();
  ASSERT_NE(json.find("\"quantiles\""), std::string::npos);
  // Strip the quantiles object from the histogram row: must now reject.
  const std::size_t start = json.find(",\"quantiles\":{");
  ASSERT_NE(start, std::string::npos);
  const std::size_t end = json.find('}', start);
  ASSERT_NE(end, std::string::npos);
  json.erase(start, end - start + 1);
  const Status s = validate_run_report_json(json);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("quantiles"), std::string::npos)
      << s.to_string();
}

TEST(RunReportSchema, RejectsDisorderedQuantiles) {
  std::string json = sample_report().to_json();
  // sample_report observes a single 5 → p50=p90=p99=max=7. Force p90 < p50.
  const std::string needle = "\"p90\":7";
  ASSERT_NE(json.find(needle), std::string::npos);
  json.replace(json.find(needle), needle.size(), "\"p90\":3");
  EXPECT_FALSE(validate_run_report_json(json).is_ok());
}

TEST(RunReportSchema, AcceptsAndRejectsTimeseriesSection) {
  auto with_timeseries = [](const std::string& ts_json) {
    RunReport report = sample_report();
    report.sections.emplace_back("timeseries", ts_json);
    return report.to_json();
  };
  const Status good = validate_run_report_json(with_timeseries(
      "{\"run_id\":\"0123456789abcdef\",\"interval_ms\":1000,\"ticks\":2,"
      "\"uptime_ms\":[1000,2000],\"nodes_total\":[10,20],"
      "\"frontier_size\":[4,0],\"nodes_per_sec\":[10.0,10.0]}"));
  EXPECT_TRUE(good.is_ok()) << good.to_string();
  // Array length disagrees with ticks.
  EXPECT_FALSE(validate_run_report_json(with_timeseries(
                   "{\"run_id\":\"0123456789abcdef\",\"interval_ms\":1000,"
                   "\"ticks\":2,\"uptime_ms\":[1000],\"nodes_total\":[10,20],"
                   "\"frontier_size\":[4,0],\"nodes_per_sec\":[10.0,10.0]}"))
                   .is_ok());
  // Empty run_id.
  EXPECT_FALSE(validate_run_report_json(with_timeseries(
                   "{\"run_id\":\"\",\"interval_ms\":1000,\"ticks\":0,"
                   "\"uptime_ms\":[],\"nodes_total\":[],"
                   "\"frontier_size\":[],\"nodes_per_sec\":[]}"))
                   .is_ok());
  // interval below 1ms.
  EXPECT_FALSE(validate_run_report_json(with_timeseries(
                   "{\"run_id\":\"0123456789abcdef\",\"interval_ms\":0,"
                   "\"ticks\":0,\"uptime_ms\":[],\"nodes_total\":[],"
                   "\"frontier_size\":[],\"nodes_per_sec\":[]}"))
                   .is_ok());
}

// Histogram fields are uint64: a value in [2^63, 2^64) must round-trip
// through the writer, the parser and the schema. Observing ~0 lands in the
// top bucket (its quantiles are UINT64_MAX); two 2^62 samples make sum 2^63.
TEST(RunReportSchema, AcceptsUint64HistogramValues) {
  set_metrics_enabled(true);
  Registry registry;
  registry.histogram("t.top")->observe(~std::uint64_t{0});
  registry.histogram("t.sum")->observe(std::uint64_t{1} << 62);
  registry.histogram("t.sum")->observe(std::uint64_t{1} << 62);
  RunReport report = sample_report();
  report.metrics = registry.snapshot();
  set_metrics_enabled(false);

  const std::string json = report.to_json();
  ASSERT_NE(json.find("18446744073709551615"), std::string::npos) << json;
  ASSERT_NE(json.find("\"sum\":9223372036854775808"), std::string::npos)
      << json;
  const Status s = validate_run_report_json(json);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  const std::string path = ::testing::TempDir() + "/lbsa_obs_uint64.json";
  const Status written = write_run_report(report, path);
  EXPECT_TRUE(written.is_ok()) << written.to_string();
  std::remove(path.c_str());

  // The quantile-order rule compares as uint64: a top-bucket p99 followed
  // by a smaller max is still out of order.
  std::string disordered = json;
  const std::string needle = "\"max\":18446744073709551615";
  ASSERT_NE(disordered.find(needle), std::string::npos);
  disordered.replace(disordered.find(needle), needle.size(), "\"max\":7");
  const Status rejected = validate_run_report_json(disordered);
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("quantiles.max < p99"), std::string::npos)
      << rejected.to_string();
}

TEST(RunReportSchema, RejectsDuplicateKeys) {
  std::string json = sample_report().to_json();
  const std::string needle = "\"tool\":\"unit_test\"";
  ASSERT_NE(json.find(needle), std::string::npos);
  json.replace(json.find(needle), needle.size(),
               needle + ",\"tool\":\"other_tool\"");
  const Status s = validate_run_report_json(json);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("duplicate key \"tool\""), std::string::npos)
      << s.to_string();
}

TEST(BenchArtifactSchema, AcceptsMergedArtifactAndRejectsBadRows) {
  const std::string report_json = sample_report().to_json();
  const std::string good = "{\"lbsa_bench_schema\":1,"
                           "\"benchmarks\":[{\"task\":\"dac3\",\"nodes\":441}],"
                           "\"run_reports\":{\"explorer_cli:dac3:t1\":" +
                           report_json + "}}";
  const Status s = validate_bench_artifact_json(good);
  EXPECT_TRUE(s.is_ok()) << s.to_string();

  EXPECT_FALSE(validate_bench_artifact_json("{}").is_ok());
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":2,\"benchmarks\":[],"
                   "\"run_reports\":{}}")
                   .is_ok());
  // Benchmark row without a task name.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":[{}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  // Embedded run report must itself validate.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":[],"
                   "\"run_reports\":{\"x\":{}}}")
                   .is_ok());
}

TEST(BenchArtifactSchema, ChecksReductionSweepRows) {
  // The reduction sweep's row shape (tools/run_report.sh).
  const Status good = validate_bench_artifact_json(
      "{\"lbsa_bench_schema\":1,\"benchmarks\":["
      "{\"task\":\"dac4-sym\",\"threads\":1,\"reduction\":\"both\","
      "\"nodes\":394,\"nodes_per_sec\":228805,\"reduction_ratio\":4.27}],"
      "\"run_reports\":{}}");
  EXPECT_TRUE(good.is_ok()) << good.to_string();
  // Unknown reduction mode.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac4-sym\",\"reduction\":\"sym\"}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  // Measurement fields, when present, must be numbers.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac4-sym\",\"reduction_ratio\":\"4.27\"}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac4-sym\",\"nodes_per_sec\":true}],"
                   "\"run_reports\":{}}")
                   .is_ok());
}

TEST(BenchArtifactSchema, ChecksSymCostRows) {
  // The symmetry-cost pair's row shape (tools/run_report.sh): serial
  // wall-clock with reduction off vs on, tagged by which side the row is.
  const Status good = validate_bench_artifact_json(
      "{\"lbsa_bench_schema\":1,\"benchmarks\":["
      "{\"task\":\"dac5-sym\",\"sym_cost\":\"none\",\"threads\":1,"
      "\"nodes\":19221,\"nodes_per_sec\":250000},"
      "{\"task\":\"dac5-sym\",\"sym_cost\":\"symmetry\",\"threads\":1,"
      "\"nodes\":1513,\"nodes_per_sec\":190000}],"
      "\"run_reports\":{}}");
  EXPECT_TRUE(good.is_ok()) << good.to_string();
  // sym_cost only names the two sides of the pair.
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac5\",\"sym_cost\":\"por\"}],"
                   "\"run_reports\":{}}")
                   .is_ok());
  EXPECT_FALSE(validate_bench_artifact_json(
                   "{\"lbsa_bench_schema\":1,\"benchmarks\":["
                   "{\"task\":\"dac5\",\"sym_cost\":1}],"
                   "\"run_reports\":{}}")
                   .is_ok());
}

}  // namespace
}  // namespace lbsa::obs
