#include "obs/schema.h"

#include <iterator>

namespace lbsa::obs {

SchemaPath SchemaPath::field(std::string_view name) const {
  return SchemaPath(schema_, path_.empty() ? std::string(name)
                                           : path_ + "." + std::string(name));
}

SchemaPath SchemaPath::index(std::size_t i) const {
  return SchemaPath(schema_, path_ + "[" + std::to_string(i) + "]");
}

Status SchemaPath::error(std::string_view name,
                         std::string_view reason) const {
  return field(name).error(reason);
}

Status SchemaPath::error(std::string_view reason) const {
  return invalid_argument(std::string(schema_) + ": " +
                          (path_.empty() ? "document" : path_) + " " +
                          std::string(reason));
}

namespace {

struct KindRule {
  bool (*accepts)(const JsonValue&);
  std::string_view reason;
};

// Indexed by FieldKind.
constexpr KindRule kKindRules[] = {
    {[](const JsonValue& v) { return v.is_string(); }, "not a string"},
    {[](const JsonValue& v) { return v.is_string(); }, "not a string"},
    {[](const JsonValue& v) { return v.number_is_integer; }, "not an integer"},
    {[](const JsonValue& v) { return v.number_is_uint; },
     "not a non-negative integer"},
    {[](const JsonValue& v) { return v.is_number(); }, "not a number"},
    {[](const JsonValue& v) { return v.kind == JsonValue::Kind::kBool; },
     "not a bool"},
    {[](const JsonValue& v) { return v.is_object(); }, "not an object"},
    {[](const JsonValue& v) { return v.is_array(); }, "not an array"},
    {[](const JsonValue& v) {
       return v.is_number() || v.kind == JsonValue::Kind::kNull;
     },
     "not a number or null"},
};

static_assert(std::size(kKindRules) ==
              static_cast<std::size_t>(FieldKind::kNumberOrNull) + 1);

const KindRule& rule(FieldKind kind) {
  return kKindRules[static_cast<int>(kind)];
}

}  // namespace

Status check_value(const JsonValue& v, const FieldSpec& spec,
                   const SchemaPath& path) {
  if (!rule(spec.kind).accepts(v)) {
    return path.error(spec.name, rule(spec.kind).reason);
  }
  if (spec.kind == FieldKind::kNonEmptyString && v.string_value.empty()) {
    return path.error(spec.name, "empty");
  }
  if (spec.kind == FieldKind::kInt) {
    if (spec.min == spec.max && v.int_value != spec.min) {
      return path.error(spec.name, "!= " + std::to_string(spec.min));
    }
    if (v.int_value < spec.min) {
      return path.error(spec.name, "< " + std::to_string(spec.min));
    }
    if (v.int_value > spec.max) {
      return path.error(spec.name, "> " + std::to_string(spec.max));
    }
  }
  if (spec.kind == FieldKind::kUint &&
      spec.max != FieldSpec{}.max &&
      v.uint_value > static_cast<std::uint64_t>(spec.max)) {
    return path.error(spec.name, "> " + std::to_string(spec.max));
  }
  if (spec.allowed.empty()) return Status::ok();
  std::string reason = "not one of ";
  for (std::string_view allowed : spec.allowed) {
    if (v.string_value == allowed) return Status::ok();
    if (allowed != spec.allowed.front()) reason += '/';
    reason += allowed;
  }
  return path.error(spec.name, reason);
}

Status check_fields(const JsonValue& obj, std::span<const FieldSpec> fields,
                    const SchemaPath& path) {
  if (!obj.is_object()) return path.error("not an object");
  for (const FieldSpec& spec : fields) {
    if (const JsonValue* v = obj.find(spec.name); v != nullptr) {
      LBSA_RETURN_IF_ERROR(check_value(*v, spec, path));
    } else if (spec.required) {
      return path.error(spec.name, "missing");
    }
  }
  return Status::ok();
}

Status check_map_of(const JsonValue& obj, FieldKind kind,
                    const SchemaPath& path) {
  if (!obj.is_object()) return path.error("not an object");
  for (const auto& [name, value] : obj.members) {
    LBSA_RETURN_IF_ERROR(
        check_value(value, {.name = name, .kind = kind}, path));
  }
  return Status::ok();
}

Status check_array_of(const JsonValue& arr, FieldKind kind,
                      const SchemaPath& path,
                      std::span<const FieldSpec> element_fields) {
  if (!arr.is_array()) return path.error("not an array");
  for (std::size_t i = 0; i < arr.array.size(); ++i) {
    if (!rule(kind).accepts(arr.array[i])) {
      return path.index(i).error(rule(kind).reason);
    }
    if (!element_fields.empty()) {
      LBSA_RETURN_IF_ERROR(
          check_fields(arr.array[i], element_fields, path.index(i)));
    }
  }
  return Status::ok();
}

Status validate_trace_json(std::string_view json) {
  static constexpr FieldSpec kTraceFields[] = {
      {.name = "traceEvents", .kind = FieldKind::kArray}};
  static constexpr FieldSpec kEventFields[] = {
      {.name = "name"},
      {.name = "ph"},
      {.name = "pid", .kind = FieldKind::kNumber}};
  StatusOr<JsonValue> parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const SchemaPath path("trace");
  LBSA_RETURN_IF_ERROR(check_fields(parsed.value(), kTraceFields, path));
  return check_array_of(*parsed.value().find("traceEvents"),
                        FieldKind::kObject, path.field("traceEvents"),
                        kEventFields);
}

}  // namespace lbsa::obs
