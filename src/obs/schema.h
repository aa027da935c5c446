// Field-spec tables for every JSON format the repository reads back (run
// reports, bench and hierarchy artifacts, heartbeats, traces, lbsa_serverd
// lines). A schema is a constexpr FieldSpec array checked by check_fields;
// rules relating two fields stay plain code next to their table. Every
// violation is INVALID_ARGUMENT in one format:
//
//   <schema>: <path>.<field> <reason>
#ifndef LBSA_OBS_SCHEMA_H_
#define LBSA_OBS_SCHEMA_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "base/status.h"
#include "obs/json.h"

namespace lbsa::obs {

enum class FieldKind {
  kString,
  kNonEmptyString,
  kInt,   // exact int64 literal within [min, max]
  kUint,  // exact uint64 literal, [0, 2^64), or [0, max] when max is set
  kNumber,
  kBool,
  kObject,
  kArray,
  kNumberOrNull,
};

struct FieldSpec {
  std::string_view name;
  FieldKind kind = FieldKind::kString;
  bool required = true;
  std::int64_t min = std::numeric_limits<std::int64_t>::min();  // kInt only
  // kInt, and kUint rows that lower it from this default.
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
  std::span<const std::string_view> allowed = {};  // strings: if non-empty
};

// The schema's name plus a path from the document root ("" at the root).
class SchemaPath {
 public:
  explicit SchemaPath(std::string_view schema, std::string path = {})
      : schema_(schema), path_(std::move(path)) {}

  SchemaPath field(std::string_view name) const;
  SchemaPath index(std::size_t i) const;
  // "<schema>: <path>.<name> <reason>"; "document" names an empty path.
  Status error(std::string_view name, std::string_view reason) const;
  Status error(std::string_view reason) const;

 private:
  std::string_view schema_;
  std::string path_;
};

// `v` has spec's kind, range and allowed value (spec.name names it).
Status check_value(const JsonValue& v, const FieldSpec& spec,
                   const SchemaPath& path);
// `obj` is an object; each row's member is present unless optional and, if
// present, meets its row. Members no row names are ignored.
Status check_fields(const JsonValue& obj, std::span<const FieldSpec> fields,
                    const SchemaPath& path);
// Every member value of object `obj` is of `kind` ("map of integers").
Status check_map_of(const JsonValue& obj, FieldKind kind,
                    const SchemaPath& path);
// Every element of array `arr` is of `kind`, and meets `element_fields`
// when that table is non-empty.
Status check_array_of(const JsonValue& arr, FieldKind kind,
                      const SchemaPath& path,
                      std::span<const FieldSpec> element_fields = {});

// The names run reports and artifacts give the explorer engines and
// reductions (modelcheck::engine_name / reduction_name).
inline constexpr std::string_view kEngineNames[] = {"serial", "workstealing",
                                                    "auto"};
inline constexpr std::string_view kReductionNames[] = {"none", "symmetry",
                                                       "por", "both"};

// Schema check for a --trace-out Chrome trace file: a traceEvents array of
// objects carrying name, ph and pid.
Status validate_trace_json(std::string_view json);

}  // namespace lbsa::obs

#endif  // LBSA_OBS_SCHEMA_H_
