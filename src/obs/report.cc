#include "obs/report.h"

#include <cstdio>
#include <iterator>
#include <span>
#include <vector>

#include "obs/json.h"
#include "obs/schema.h"

namespace lbsa::obs {

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("run_report_version");
  w.value_int(kSchemaVersion);
  w.key("tool");
  w.value_string(tool);
  w.key("task");
  w.value_string(task);
  w.key("params");
  w.begin_object();
  for (const auto& [name, raw] : params) {
    w.key(name);
    w.value_raw(raw);
  }
  w.end_object();
  w.key("wall_seconds");
  w.value_double(wall_seconds);
  w.key("metrics");
  w.value_raw(metrics.to_json());
  w.key("sections");
  w.begin_object();
  for (const auto& [name, raw] : sections) {
    w.key(name);
    w.value_raw(raw);
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

namespace {

using K = FieldKind;

constexpr FieldSpec kRunReportFields[] = {
    {.name = "run_report_version", .kind = K::kInt,
     .min = RunReport::kSchemaVersion, .max = RunReport::kSchemaVersion},
    {.name = "tool", .kind = K::kNonEmptyString},
    {.name = "task"},
    {.name = "params", .kind = K::kObject},
    {.name = "wall_seconds", .kind = K::kNumber},
    {.name = "metrics", .kind = K::kObject},
    {.name = "sections", .kind = K::kObject},
};

constexpr FieldSpec kMetricGroupFields[] = {
    {.name = "counters", .kind = K::kObject},
    {.name = "gauges", .kind = K::kObject},
    {.name = "histograms", .kind = K::kObject},
};

constexpr FieldSpec kHistogramFields[] = {
    {.name = "count", .kind = K::kUint},
    {.name = "sum", .kind = K::kUint},
    {.name = "buckets", .kind = K::kArray},
    {.name = "quantiles", .kind = K::kObject},
};

// In the order upper-bound quantiles from one bucket array must hold.
constexpr FieldSpec kQuantileFields[] = {
    {.name = "p50", .kind = K::kUint},
    {.name = "p90", .kind = K::kUint},
    {.name = "p99", .kind = K::kUint},
    {.name = "max", .kind = K::kUint},
};

// Rows 3.. are the per-tick arrays, each `ticks` long.
constexpr FieldSpec kTimeseriesFields[] = {
    {.name = "run_id", .kind = K::kNonEmptyString},
    {.name = "interval_ms", .kind = K::kInt, .min = 1},
    {.name = "ticks", .kind = K::kInt, .min = 0},
    {.name = "uptime_ms", .kind = K::kArray},
    {.name = "nodes_total", .kind = K::kArray},
    {.name = "frontier_size", .kind = K::kArray},
    {.name = "nodes_per_sec", .kind = K::kArray},
};

// "counters" (uint64) and "gauges" (int64) map names to integers;
// "histograms" maps names to {count, sum, buckets[], quantiles{...}}.
Status check_metric_group(const JsonValue& group, const SchemaPath& path) {
  LBSA_RETURN_IF_ERROR(check_fields(group, kMetricGroupFields, path));
  LBSA_RETURN_IF_ERROR(check_map_of(*group.find("counters"), K::kUint,
                                    path.field("counters")));
  LBSA_RETURN_IF_ERROR(
      check_map_of(*group.find("gauges"), K::kInt, path.field("gauges")));
  for (const auto& [name, histogram] : group.find("histograms")->members) {
    const SchemaPath at = path.field("histograms").field(name);
    LBSA_RETURN_IF_ERROR(check_fields(histogram, kHistogramFields, at));
    LBSA_RETURN_IF_ERROR(check_array_of(*histogram.find("buckets"), K::kUint,
                                        at.field("buckets")));
    const JsonValue& q = *histogram.find("quantiles");
    LBSA_RETURN_IF_ERROR(
        check_fields(q, kQuantileFields, at.field("quantiles")));
    for (std::size_t i = 1; i < std::size(kQuantileFields); ++i) {
      const std::string_view name_i = kQuantileFields[i].name;
      const std::string_view prev = kQuantileFields[i - 1].name;
      if (q.find(name_i)->uint_value < q.find(prev)->uint_value) {
        return at.field("quantiles").error(name_i, "< " + std::string(prev));
      }
    }
  }
  return Status::ok();
}

Status check_run_report_value(const JsonValue& root, const SchemaPath& path) {
  LBSA_RETURN_IF_ERROR(check_fields(root, kRunReportFields, path));
  const JsonValue& metrics = *root.find("metrics");
  LBSA_RETURN_IF_ERROR(check_metric_group(metrics, path.field("metrics")));
  constexpr FieldSpec kVolatile[] = {{.name = "volatile", .kind = K::kObject}};
  LBSA_RETURN_IF_ERROR(check_fields(metrics, kVolatile, path.field("metrics")));
  LBSA_RETURN_IF_ERROR(check_metric_group(
      *metrics.find("volatile"), path.field("metrics").field("volatile")));
  const JsonValue& sections = *root.find("sections");
  // The optional timeseries section mirrors a heartbeat stream: run_id,
  // interval and parallel arrays, one entry per captured tick.
  if (const JsonValue* ts = sections.find("timeseries"); ts != nullptr) {
    const SchemaPath at = path.field("sections").field("timeseries");
    LBSA_RETURN_IF_ERROR(check_fields(*ts, kTimeseriesFields, at));
    const auto ticks = static_cast<std::size_t>(ts->find("ticks")->int_value);
    for (const FieldSpec& row : std::span(kTimeseriesFields).subspan(3)) {
      const JsonValue& arr = *ts->find(row.name);
      if (arr.array.size() != ticks) {
        return at.error(row.name, "length != ticks");
      }
      LBSA_RETURN_IF_ERROR(check_array_of(arr, K::kNumber, at.field(row.name)));
    }
  }
  // The explorer section's full-graph estimate (and the reduction ratio
  // derived from it) only counts visited orbits, so on a truncated or
  // interrupted graph it silently understates the state space. Writers omit
  // both fields on incomplete graphs; a report carrying them anyway is a
  // producer bug, not a presentation choice — reject it.
  const JsonValue* explorer = sections.find("explorer");
  if (explorer == nullptr || !explorer->is_object()) return Status::ok();
  for (const char* flag : {"truncated", "interrupted"}) {
    const JsonValue* v = explorer->find(flag);
    if (v == nullptr || v->kind != JsonValue::Kind::kBool || !v->bool_value) {
      continue;
    }
    for (const char* field : {"nodes_full_estimate", "reduction_ratio"}) {
      if (explorer->find(field) != nullptr) {
        return path.field("sections").field("explorer").error(
            field, "present on an incomplete (truncated/interrupted) graph");
      }
    }
  }
  return Status::ok();
}

constexpr FieldSpec kBenchFields[] = {
    {.name = "lbsa_bench_schema", .kind = K::kInt, .min = 1, .max = 1},
    {.name = "benchmarks", .kind = K::kArray},
    {.name = "run_reports", .kind = K::kObject},
};

// Optional tags name the sweep a row belongs to: reduction and engine
// sweeps, obs overhead (the telemetry state), symmetry cost (which side of
// the reduction off/on pair) and serve throughput (the op an lbsa_client
// load run drove, docs/serving.md). Measurements, when present, are numbers.
constexpr std::string_view kObsStates[] = {"heartbeat", "disabled"};
constexpr std::string_view kSymCostSides[] = {"none", "symmetry"};
constexpr std::string_view kServeOps[] = {"check", "explore", "fuzz"};
constexpr FieldSpec kBenchRowFields[] = {
    {.name = "task", .kind = K::kNonEmptyString},
    {.name = "reduction", .required = false, .allowed = kReductionNames},
    {.name = "engine", .required = false, .allowed = kEngineNames},
    {.name = "obs", .required = false, .allowed = kObsStates},
    {.name = "sym_cost", .required = false, .allowed = kSymCostSides},
    {.name = "serve", .required = false, .allowed = kServeOps},
    {.name = "nodes", .kind = K::kNumber, .required = false},
    {.name = "nodes_per_sec", .kind = K::kNumber, .required = false},
    {.name = "reduction_ratio", .kind = K::kNumber, .required = false},
    {.name = "bytes_per_node", .kind = K::kNumber, .required = false},
    {.name = "threads", .kind = K::kNumber, .required = false},
    {.name = "threads_available", .kind = K::kNumber, .required = false},
    {.name = "requests", .kind = K::kNumber, .required = false},
    {.name = "concurrency", .kind = K::kNumber, .required = false},
    {.name = "throughput_rps", .kind = K::kNumber, .required = false},
    {.name = "latency_us_p50", .kind = K::kNumber, .required = false},
    {.name = "latency_us_p90", .kind = K::kNumber, .required = false},
    {.name = "latency_us_p99", .kind = K::kNumber, .required = false},
};

constexpr FieldSpec kHierarchyFields[] = {
    {.name = "lbsa_hierarchy_schema", .kind = K::kInt, .min = 1, .max = 1},
    {.name = "n_min", .kind = K::kInt, .min = 2},
    {.name = "n_max", .kind = K::kInt, .min = 2},
    {.name = "rows", .kind = K::kArray},
    {.name = "provenance", .kind = K::kObject},
};

constexpr FieldSpec kHierarchyRowFields[] = {
    {.name = "n", .kind = K::kInt, .min = 2},
    {.name = "m", .kind = K::kInt, .min = 1},
    {.name = "object", .kind = K::kNonEmptyString},
    {.name = "declared_level", .kind = K::kInt, .min = 1},
    {.name = "level_source", .kind = K::kNonEmptyString},
    {.name = "consensus", .kind = K::kObject},
    {.name = "consensus_ok_all_p", .kind = K::kBool},
    {.name = "dac", .kind = K::kObject},
    {.name = "matches_catalog", .kind = K::kBool},
};

// One "consensus"/"dac" check object: ok verdict plus sane graph counts.
constexpr FieldSpec kHierarchyCheckFields[] = {
    {.name = "ok", .kind = K::kBool},
    {.name = "processes", .kind = K::kInt, .min = 1},
    {.name = "nodes", .kind = K::kInt, .min = 1},
    {.name = "transitions", .kind = K::kInt, .min = 1},
    {.name = "nodes_full", .kind = K::kInt, .min = 1},
    {.name = "reduction_ratio", .kind = K::kNumber},
};

// Sweep rows are pinned to symmetry reduction.
constexpr std::string_view kSweepTools[] = {"hierarchy_sweep_cli"};
constexpr std::string_view kSweepReductions[] = {"symmetry"};
constexpr FieldSpec kProvenanceFields[] = {
    {.name = "tool", .allowed = kSweepTools},
    {.name = "engine", .allowed = kEngineNames},
    {.name = "threads", .kind = K::kInt, .min = 0},
    {.name = "threads_available", .kind = K::kInt, .min = 1},
    {.name = "reduction", .allowed = kSweepReductions},
};

}  // namespace

Status validate_run_report_json(std::string_view json) {
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  return check_run_report_value(parsed.value(),
                                SchemaPath("run report schema"));
}

Status validate_bench_artifact_json(std::string_view json) {
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  const SchemaPath path("bench schema");
  LBSA_RETURN_IF_ERROR(check_fields(root, kBenchFields, path));
  LBSA_RETURN_IF_ERROR(check_array_of(*root.find("benchmarks"), K::kObject,
                                      path.field("benchmarks"),
                                      kBenchRowFields));
  for (const auto& [name, report] : root.find("run_reports")->members) {
    LBSA_RETURN_IF_ERROR(check_run_report_value(
        report, path.field("run_reports").field(name)));
  }
  return Status::ok();
}

Status validate_hierarchy_artifact_json(std::string_view json) {
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  const SchemaPath path("hierarchy schema");
  LBSA_RETURN_IF_ERROR(check_fields(root, kHierarchyFields, path));
  const std::int64_t n_min = root.find("n_min")->int_value;
  const std::int64_t n_max = root.find("n_max")->int_value;
  if (n_max < n_min) return path.error("n_max", "< n_min");

  // Exact lexicographic coverage of [n_min, n_max] x [1, n].
  const std::vector<JsonValue>& rows = root.find("rows")->array;
  std::size_t index = 0;
  for (std::int64_t n = n_min; n <= n_max; ++n) {
    for (std::int64_t m = 1; m <= n; ++m, ++index) {
      const SchemaPath at("hierarchy schema",
                          "rows[" + std::to_string(index) + "] (n=" +
                              std::to_string(n) + ",m=" + std::to_string(m) +
                              ")");
      if (index >= rows.size()) {
        return at.error("missing: sweep does not cover the full (n, m) grid");
      }
      const JsonValue& row = rows[index];
      LBSA_RETURN_IF_ERROR(check_fields(row, kHierarchyRowFields, at));
      if (row.find("n")->int_value != n || row.find("m")->int_value != m) {
        return at.error("out of lexicographic order");
      }
      if (row.find("declared_level")->int_value != m) {
        return at.error("declared_level", "!= m (Theorem 5.3)");
      }
      // The constructive checks: consensus among m, DAC among n processes.
      for (const auto& [name, processes] :
           {std::pair{"consensus", m}, std::pair{"dac", n}}) {
        const JsonValue& check = *row.find(name);
        const SchemaPath in = at.field(name);
        LBSA_RETURN_IF_ERROR(check_fields(check, kHierarchyCheckFields, in));
        if (!check.find("ok")->bool_value) return in.error("ok", "is false");
        if (check.find("processes")->int_value != processes) {
          return in.error("processes", "!= " + std::to_string(processes));
        }
        if (check.find("nodes_full")->int_value <
            check.find("nodes")->int_value) {
          return in.error("nodes_full", "< nodes");
        }
        if (check.find("reduction_ratio")->number_value < 1.0) {
          return in.error("reduction_ratio", "< 1.0");
        }
      }
      for (const char* verdict : {"consensus_ok_all_p", "matches_catalog"}) {
        if (!row.find(verdict)->bool_value) {
          return at.error(verdict, "is false");
        }
      }
    }
  }
  if (index != rows.size()) {
    return path.error("rows", "has " + std::to_string(rows.size()) +
                                  " entries, expected " +
                                  std::to_string(index));
  }
  return check_fields(*root.find("provenance"), kProvenanceFields,
                      path.field("provenance"));
}

Status write_text_file(const std::string& path, std::string_view text) {
  // Stage in a same-directory temp file, then rename: POSIX rename is
  // atomic, so a reader (or a second interrupt) never sees a torn artifact.
  const std::string staging = path + ".tmp";
  std::FILE* f = std::fopen(staging.c_str(), "wb");
  if (f == nullptr) {
    return internal_error("obs: cannot open '" + staging + "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flush_ok = std::fflush(f) == 0;
  const bool close_ok = std::fclose(f) == 0;
  if (written != text.size() || !flush_ok || !close_ok) {
    std::remove(staging.c_str());
    return internal_error("obs: short write to '" + staging + "'");
  }
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    std::remove(staging.c_str());
    return internal_error("obs: cannot rename '" + staging + "' to '" + path +
                          "'");
  }
  return Status::ok();
}

Status write_run_report(const RunReport& report, const std::string& path) {
  std::string json = report.to_json();
  Status s = validate_run_report_json(json);
  if (!s.is_ok()) return s;
  json += '\n';
  return write_text_file(path, json);
}

}  // namespace lbsa::obs
