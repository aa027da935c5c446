#include "obs/json.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "gtest/gtest.h"

namespace lbsa::obs {
namespace {

TEST(JsonEscape, EscapesControlQuoteBackslash) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriter, ManagesCommasAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.key("n");
  w.value_uint(3);
  w.key("name");
  w.value_string("x\"y");
  w.key("list");
  w.begin_array();
  w.value_int(-1);
  w.value_bool(true);
  w.value_raw("{\"inner\":0}");
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"n\":3,\"name\":\"x\\\"y\",\"list\":[-1,true,{\"inner\":0}]}");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("b");
  w.value_uint(2);
  w.key("a");
  w.value_double(0.5);
  w.end_object();
  auto parsed = parse_json(std::move(w).str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  // Member order is preserved, not sorted.
  ASSERT_EQ(root.members.size(), 2u);
  EXPECT_EQ(root.members[0].first, "b");
  const JsonValue* b = root.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->number_is_integer);
  EXPECT_EQ(b->int_value, 2);
  const JsonValue* a = root.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->number_is_integer);
  EXPECT_DOUBLE_EQ(a->number_value, 0.5);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("").is_ok());
  EXPECT_FALSE(parse_json("{").is_ok());
  EXPECT_FALSE(parse_json("{}extra").is_ok());
  EXPECT_FALSE(parse_json("{'single':1}").is_ok());
  EXPECT_FALSE(parse_json("[1,]").is_ok());
  EXPECT_FALSE(parse_json("{\"a\":nope}").is_ok());
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(parse_json(deep).is_ok());
  std::string shallow = "[[[[[[[[[[]]]]]]]]]]";
  EXPECT_TRUE(parse_json(shallow).is_ok());
}

TEST(JsonParse, ParsesStringsWithEscapes) {
  auto parsed = parse_json("\"a\\n\\u0041\\\"\"");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().string_value, "a\nA\"");
}

TEST(JsonParse, RejectsNonFiniteNumbers) {
  // strtod is laxer than JSON: it returns ±HUGE_VAL for overflowing
  // literals like 1e999. A strict parser must not materialize values JSON
  // itself cannot round-trip.
  for (const char* text :
       {"1e999", "-1e999", "[1.0,1e400]", "{\"x\":-2e308}"}) {
    const auto parsed = parse_json(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("out of range"),
              std::string::npos)
        << parsed.status().to_string();
  }
  // Inf/nan spellings were never valid JSON; the tokenizer rejects them
  // before strtod (which would happily accept them) ever sees the text.
  for (const char* text : {"inf", "nan", "-inf", "Infinity", "NaN"}) {
    EXPECT_FALSE(parse_json(text).is_ok()) << text;
  }
  // Large-but-finite values still parse.
  auto ok = parse_json("1e308");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_DOUBLE_EQ(ok.value().number_value, 1e308);
}

TEST(JsonParse, KeepsExactUint64View) {
  // [2^63, 2^64) overflows strtoll but is a valid uint64 (a counter's or a
  // histogram's upper half): the parser keeps it exact.
  auto top = parse_json("18446744073709551615");
  ASSERT_TRUE(top.is_ok()) << top.status().to_string();
  EXPECT_TRUE(top.value().number_is_uint);
  EXPECT_EQ(top.value().uint_value, ~std::uint64_t{0});
  EXPECT_FALSE(top.value().number_is_integer) << "no exact int64 view";

  auto mid = parse_json("9223372036854775808");
  ASSERT_TRUE(mid.is_ok());
  EXPECT_TRUE(mid.value().number_is_uint);
  EXPECT_EQ(mid.value().uint_value, std::uint64_t{1} << 63);

  auto small = parse_json("42");
  ASSERT_TRUE(small.is_ok());
  EXPECT_TRUE(small.value().number_is_integer);
  EXPECT_TRUE(small.value().number_is_uint);
  EXPECT_EQ(small.value().uint_value, 42u);

  // Negative literals have no uint64 view (strtoull would negate them).
  for (const char* text : {"-1", "-18446744073709551615"}) {
    auto negative = parse_json(text);
    ASSERT_TRUE(negative.is_ok()) << text;
    EXPECT_FALSE(negative.value().number_is_uint) << text;
  }
  // Past 2^64 a literal is a plain number.
  auto over = parse_json("18446744073709551616");
  ASSERT_TRUE(over.is_ok());
  EXPECT_FALSE(over.value().number_is_uint);
  EXPECT_FALSE(over.value().number_is_integer);
}

TEST(JsonParse, RejectsDuplicateKeys) {
  for (const char* text :
       {"{\"a\":1,\"a\":2}", "{\"a\":1,\"b\":2,\"a\":1}",
        "[{\"x\":{\"k\":true,\"k\":false}}]",
        // Escapes decode before the comparison.
        "{\"a\":1,\"\\u0061\":2}"}) {
    const auto parsed = parse_json(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("duplicate key \""),
              std::string::npos)
        << parsed.status().to_string();
  }
  // The same name in sibling objects is fine.
  EXPECT_TRUE(parse_json("[{\"a\":1},{\"a\":2}]").is_ok());
  EXPECT_TRUE(parse_json("{\"a\":{\"a\":1}}").is_ok());
}

TEST(JsonWriterDeathTest, RefusesNonFiniteDoubles) {
  // JSON has no inf/nan; silently clamping would launder a wrong number
  // into every downstream consumer, so the writer aborts instead.
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.begin_array();
        w.value_double(std::numeric_limits<double>::infinity());
      },
      "non-finite");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.begin_array();
        w.value_double(std::nan(""));
      },
      "non-finite");
}

}  // namespace
}  // namespace lbsa::obs
