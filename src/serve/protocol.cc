#include "serve/protocol.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "modelcheck/explorer.h"
#include "obs/json.h"
#include "obs/schema.h"

namespace lbsa::serve {
namespace {

using obs::FieldKind;
using obs::FieldSpec;
using obs::JsonValue;
using obs::SchemaPath;
using K = FieldKind;

// A wire field bound to the struct member it sets. `variants` is a bit set
// over the values of the line's discriminator (the request op or the
// response type): the field belongs to the line only for those values.
template <class T>
struct BoundField {
  FieldSpec spec;
  unsigned variants;
  std::variant<std::monostate, std::string T::*, std::uint64_t T::*,
               int T::*, bool T::*>
      member;  // monostate: checked, not stored
};

template <class T>
void store(const BoundField<T>& field, const JsonValue& v, T* out) {
  if (auto* m = std::get_if<std::string T::*>(&field.member)) {
    out->**m = v.string_value;
  } else if (auto* m = std::get_if<std::uint64_t T::*>(&field.member)) {
    out->**m = v.uint_value;
  } else if (auto* m = std::get_if<int T::*>(&field.member)) {
    out->**m = static_cast<int>(v.int_value);  // kInt rows bound the range
  } else if (auto* m = std::get_if<bool T::*>(&field.member)) {
    out->**m = v.bool_value;
  }
}

// Checks the rows of `table` that belong to `variant` against `doc` and
// stores each present value into `out`.
template <class T>
Status read_fields(const JsonValue& doc, std::span<const BoundField<T>> table,
                   unsigned variant, const SchemaPath& path, T* out) {
  for (const BoundField<T>& field : table) {
    if ((field.variants & variant) == 0) continue;
    const JsonValue* v = doc.find(field.spec.name);
    if (v == nullptr) {
      if (field.spec.required) return path.error(field.spec.name, "missing");
      continue;
    }
    LBSA_RETURN_IF_ERROR(obs::check_value(*v, field.spec, path));
    store(field, *v, out);
  }
  return Status::ok();
}

// Reads the discriminator field `spec` (a string with an allowed list) and
// returns its variant bit: 1 << (index in spec.allowed).
Status read_variant(const JsonValue& doc, const FieldSpec& spec,
                    const SchemaPath& path, unsigned* bit) {
  LBSA_RETURN_IF_ERROR(obs::check_fields(doc, {&spec, 1}, path));
  const std::string& value = doc.find(spec.name)->string_value;
  for (std::size_t i = 0; i < spec.allowed.size(); ++i) {
    if (spec.allowed[i] == value) *bit = 1u << i;
  }
  return Status::ok();
}

constexpr std::string_view kOps[] = {"check", "explore", "fuzz", "status",
                                     "cancel"};
enum : unsigned {
  kCheck = 1u << 0,
  kExplore = 1u << 1,
  kFuzz = 1u << 2,
  kStatus = 1u << 3,
  kCancel = 1u << 4,
  kGraphOps = kCheck | kExplore,
  kWorkOps = kCheck | kExplore | kFuzz,
  kAllOps = kWorkOps | kStatus | kCancel,
};

constexpr FieldSpec kOpField = {.name = "op", .allowed = kOps};

// Every request field, the ops that accept it, and the ServeRequest member
// it sets. Wrong-typed values are rejected loudly rather than falling back
// to a default (a silently coerced knob is a debugging trap).
constexpr BoundField<ServeRequest> kRequestFields[] = {
    {{.name = "serve_version", .kind = K::kInt, .min = kServeSchemaVersion,
      .max = kServeSchemaVersion},
     kAllOps, {}},
    {kOpField, kAllOps, &ServeRequest::op},
    {{.name = "id", .kind = K::kNonEmptyString}, kAllOps, &ServeRequest::id},
    {{.name = "deadline_ms", .kind = K::kUint, .required = false,
      .max = kMaxRequestDurationMs},
     kAllOps, &ServeRequest::deadline_ms},
    {{.name = "heartbeat_ms", .kind = K::kUint, .required = false,
      .max = kMaxRequestDurationMs},
     kAllOps, &ServeRequest::heartbeat_ms},
    {{.name = "task", .kind = K::kNonEmptyString}, kWorkOps,
     &ServeRequest::task},
    {{.name = "target", .kind = K::kNonEmptyString}, kCancel,
     &ServeRequest::target},
    // Each worker is an OS thread: bound the request before it reaches an
    // explorer (which enforces the same range).
    {{.name = "threads", .kind = K::kInt, .required = false, .min = 0,
      .max = modelcheck::kMaxExploreThreads},
     kGraphOps, &ServeRequest::threads},
    {{.name = "engine", .required = false}, kGraphOps, &ServeRequest::engine},
    {{.name = "reduction", .required = false}, kGraphOps,
     &ServeRequest::reduction},
    {{.name = "max_nodes", .kind = K::kUint, .required = false}, kGraphOps,
     &ServeRequest::max_nodes},
    {{.name = "allow_truncation", .kind = K::kBool, .required = false},
     kGraphOps, &ServeRequest::allow_truncation},
    // ExploreOptions::max_levels is 32-bit.
    {{.name = "max_levels", .kind = K::kUint, .required = false,
      .max = std::numeric_limits<std::uint32_t>::max()},
     kExplore, &ServeRequest::max_levels},
    {{.name = "runs", .kind = K::kUint, .required = false}, kFuzz,
     &ServeRequest::runs},
    {{.name = "seed", .kind = K::kUint, .required = false}, kFuzz,
     &ServeRequest::seed},
    {{.name = "coverage", .kind = K::kBool, .required = false}, kFuzz,
     &ServeRequest::coverage},
    {{.name = "stop_after_runs", .kind = K::kUint, .required = false}, kFuzz,
     &ServeRequest::stop_after_runs},
    {{.name = "checkpoint_path", .required = false}, kFuzz,
     &ServeRequest::checkpoint_path},
    {{.name = "solo_node_bound", .kind = K::kUint, .required = false}, kCheck,
     &ServeRequest::solo_node_bound},
    // A report that is full before the first node would certify nothing.
    {{.name = "max_violations", .kind = K::kInt, .required = false, .min = 1,
      .max = std::numeric_limits<int>::max()},
     kCheck | kFuzz, &ServeRequest::max_violations},
};

}  // namespace

StatusOr<ServeRequest> parse_request(std::string_view line) {
  auto doc_or = obs::parse_json(line);
  if (!doc_or.is_ok()) {
    return invalid_argument("serve request: " +
                            doc_or.status().to_string());
  }
  const JsonValue& doc = doc_or.value();
  const SchemaPath path("serve request");
  // The op decides which fields are legal; an unknown or op-inapplicable
  // field is an error, never a silent default.
  unsigned op = 0;
  LBSA_RETURN_IF_ERROR(read_variant(doc, kOpField, path, &op));
  for (const auto& member : doc.members) {
    const std::string& key = member.first;
    const auto applies = [&](const BoundField<ServeRequest>& field) {
      return field.spec.name == key && (field.variants & op) != 0;
    };
    if (std::none_of(std::begin(kRequestFields), std::end(kRequestFields),
                     applies)) {
      return path.error(key, "not a field of op \"" +
                                 doc.find("op")->string_value + "\"");
    }
  }
  ServeRequest req;
  LBSA_RETURN_IF_ERROR(
      read_fields<ServeRequest>(doc, kRequestFields, op, path, &req));
  return req;
}

namespace {

obs::JsonWriter response_head(const std::string& request_id,
                              std::string_view type) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("serve_version");
  w.value_uint(kServeSchemaVersion);
  w.key("request_id");
  w.value_string(request_id);
  w.key("type");
  w.value_string(type);
  return w;
}

}  // namespace

std::string heartbeat_response(const std::string& request_id,
                               std::string_view heartbeat_line) {
  obs::JsonWriter w = response_head(request_id, "heartbeat");
  w.key("data");
  w.value_string(heartbeat_line);
  w.end_object();
  return std::move(w).str();
}

std::string report_response(const std::string& request_id, int exit_code,
                            bool cached, std::string_view human,
                            std::string_view report_json) {
  obs::JsonWriter w = response_head(request_id, "report");
  w.key("exit_code");
  w.value_int(exit_code);
  w.key("cached");
  w.value_bool(cached);
  w.key("human");
  w.value_string(human);
  w.key("report");
  w.value_string(report_json);
  w.end_object();
  return std::move(w).str();
}

std::string error_response(const std::string& request_id,
                           const Status& status) {
  obs::JsonWriter w = response_head(request_id, "error");
  w.key("status");
  w.value_string(status_code_name(status.code()));
  w.key("message");
  w.value_string(status.message());
  w.end_object();
  return std::move(w).str();
}

std::string cancel_ack_response(const std::string& request_id,
                                const std::string& target, bool found) {
  obs::JsonWriter w = response_head(request_id, "cancel_ack");
  w.key("target");
  w.value_string(target);
  w.key("found");
  w.value_bool(found);
  w.end_object();
  return std::move(w).str();
}

std::string status_response(const std::string& request_id,
                            std::string_view stats_json) {
  obs::JsonWriter w = response_head(request_id, "status");
  w.key("stats");
  w.value_string(stats_json);
  w.end_object();
  return std::move(w).str();
}

namespace {

constexpr std::string_view kTypes[] = {"heartbeat", "report", "error",
                                       "status", "cancel_ack"};
enum : unsigned {
  kHeartbeatType = 1u << 0,
  kReportType = 1u << 1,
  kErrorType = 1u << 2,
  kStatusType = 1u << 3,
  kCancelAckType = 1u << 4,
  kAllTypes = (1u << 5) - 1,
};

constexpr FieldSpec kTypeField = {.name = "type", .allowed = kTypes};

// Every response field, the types that carry it, and the ServeResponse
// member it sets.
constexpr BoundField<ServeResponse> kResponseFields[] = {
    {{.name = "serve_version", .kind = K::kInt, .min = kServeSchemaVersion,
      .max = kServeSchemaVersion},
     kAllTypes, {}},
    {{.name = "request_id"}, kAllTypes, &ServeResponse::request_id},
    {kTypeField, kAllTypes, &ServeResponse::type},
    {{.name = "data"}, kHeartbeatType, &ServeResponse::data},
    {{.name = "exit_code", .kind = K::kInt,
      .min = std::numeric_limits<int>::min(),
      .max = std::numeric_limits<int>::max()},
     kReportType, &ServeResponse::exit_code},
    {{.name = "cached", .kind = K::kBool}, kReportType, &ServeResponse::cached},
    {{.name = "human"}, kReportType, &ServeResponse::human},
    {{.name = "report"}, kReportType, &ServeResponse::data},
    {{.name = "status"}, kErrorType, &ServeResponse::status_code},
    {{.name = "message"}, kErrorType, &ServeResponse::message},
    {{.name = "target"}, kCancelAckType, &ServeResponse::target},
    {{.name = "found", .kind = K::kBool}, kCancelAckType,
     &ServeResponse::found},
    {{.name = "stats"}, kStatusType, &ServeResponse::data},
};

}  // namespace

StatusOr<ServeResponse> parse_response(std::string_view line) {
  auto doc_or = obs::parse_json(line);
  if (!doc_or.is_ok()) {
    return invalid_argument("serve response: " +
                            doc_or.status().to_string());
  }
  const JsonValue& doc = doc_or.value();
  const SchemaPath path("serve response");
  unsigned type = 0;
  LBSA_RETURN_IF_ERROR(read_variant(doc, kTypeField, path, &type));
  ServeResponse resp;
  LBSA_RETURN_IF_ERROR(
      read_fields<ServeResponse>(doc, kResponseFields, type, path, &resp));
  return resp;
}

}  // namespace lbsa::serve
