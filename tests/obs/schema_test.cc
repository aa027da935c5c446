#include "obs/schema.h"

#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace lbsa::obs {
namespace {

using K = FieldKind;

JsonValue parsed(const std::string& text) {
  auto v = parse_json(text);
  EXPECT_TRUE(v.is_ok()) << v.status().to_string();
  return std::move(v).value();
}

constexpr std::string_view kColors[] = {"red", "green"};
constexpr FieldSpec kFields[] = {
    {.name = "name", .kind = K::kNonEmptyString},
    {.name = "level", .kind = K::kInt, .min = 1, .max = 3},
    {.name = "count", .kind = K::kUint},
    {.name = "color", .required = false, .allowed = kColors},
    {.name = "eta", .kind = K::kNumberOrNull, .required = false},
};

// One message shape for every violation: "<schema>: <path>.<field> <reason>".
TEST(Schema, OneErrorFormatNamesTheField) {
  const SchemaPath root("demo schema");
  const SchemaPath nested = root.field("rows").index(2);
  const struct {
    const char* json;
    const char* message;
  } cases[] = {
      {R"({"level":1,"count":0})", "demo schema: rows[2].name missing"},
      {R"({"name":"","level":1,"count":0})", "demo schema: rows[2].name empty"},
      {R"({"name":7,"level":1,"count":0})",
       "demo schema: rows[2].name not a string"},
      {R"({"name":"a","level":0,"count":0})", "demo schema: rows[2].level < 1"},
      {R"({"name":"a","level":4,"count":0})", "demo schema: rows[2].level > 3"},
      {R"({"name":"a","level":1.5,"count":0})",
       "demo schema: rows[2].level not an integer"},
      {R"({"name":"a","level":1,"count":-1})",
       "demo schema: rows[2].count not a non-negative integer"},
      {R"({"name":"a","level":1,"count":0,"color":"blue"})",
       "demo schema: rows[2].color not one of red/green"},
      {R"({"name":"a","level":1,"count":0,"eta":"soon"})",
       "demo schema: rows[2].eta not a number or null"},
      {R"([])", "demo schema: rows[2] not an object"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.json);
    const Status s = check_fields(parsed(c.json), kFields, nested);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.message(), c.message);
  }
  EXPECT_EQ(check_fields(parsed("[]"), kFields, root).message(),
            "demo schema: document not an object");
  EXPECT_TRUE(check_fields(parsed(R"({"name":"a","level":3,)"
                                  R"("count":18446744073709551615,)"
                                  R"("color":"red","eta":null,"extra":[]})"),
                           kFields, root)
                  .is_ok());
}

TEST(Schema, PinnedIntegerReadsAsInequality) {
  constexpr FieldSpec kVersion[] = {
      {.name = "version", .kind = K::kInt, .min = 2, .max = 2}};
  EXPECT_EQ(
      check_fields(parsed(R"({"version":1})"), kVersion, SchemaPath("v"))
          .message(),
      "v: version != 2");
}

TEST(Schema, MapAndArrayHelpers) {
  const SchemaPath root("demo schema");
  EXPECT_TRUE(check_map_of(parsed(R"({"a":1,"b":-2})"), K::kInt,
                           root.field("gauges"))
                  .is_ok());
  EXPECT_EQ(check_map_of(parsed(R"({"a":1,"b":"x"})"), K::kInt,
                         root.field("gauges"))
                .message(),
            "demo schema: gauges.b not an integer");
  EXPECT_EQ(check_array_of(parsed("[1,2.5,null]"), K::kNumber,
                           root.field("xs"))
                .message(),
            "demo schema: xs[2] not a number");
  EXPECT_EQ(check_array_of(parsed("{}"), K::kNumber, root.field("xs"))
                .message(),
            "demo schema: xs not an array");
  constexpr FieldSpec kElement[] = {{.name = "id", .kind = K::kUint}};
  EXPECT_EQ(check_array_of(parsed(R"([{"id":1},{"id":true}])"), K::kObject,
                           root.field("items"), kElement)
                .message(),
            "demo schema: items[1].id not a non-negative integer");
}

TEST(TraceSchema, AcceptsTracerOutputAndRejectsBadEvents) {
  Tracer tracer;
  tracer.set_lane_name(0, "coordinator");
  tracer.record(TraceEvent{"level", kCatPhase, 0, 10, 5, {{"depth", 3}}});
  const Status good = validate_trace_json(tracer.to_chrome_json());
  EXPECT_TRUE(good.is_ok()) << good.to_string();

  EXPECT_FALSE(validate_trace_json("{}").is_ok());
  EXPECT_FALSE(validate_trace_json(R"({"traceEvents":{}})").is_ok());
  const Status no_pid = validate_trace_json(
      R"({"traceEvents":[{"name":"a","ph":"X","pid":1},)"
      R"({"name":"b","ph":"X"}]})");
  EXPECT_EQ(no_pid.message(), "trace: traceEvents[1].pid missing");
}

}  // namespace
}  // namespace lbsa::obs
