// Minimal JSON support for the observability layer: a streaming writer
// (comma/nesting management, correct string escaping) and a strict
// recursive-descent parser. The parser exists so that run reports and trace
// files can be validated in-process — by the schema tests and by the CLIs
// themselves right after writing — without external dependencies.
#ifndef LBSA_OBS_JSON_H_
#define LBSA_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace lbsa::obs {

// Escapes `text` for inclusion inside a JSON string literal (no quotes
// added).
std::string json_escape(std::string_view text);

// Streaming JSON writer. Usage:
//   JsonWriter w;
//   w.begin_object(); w.key("n"); w.value_uint(3); w.end_object();
//   std::string out = std::move(w).str();
// The writer trusts its caller to produce well-formed nesting; it only
// manages commas and escaping.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view name) {
    comma();
    out_ += '"';
    out_ += json_escape(name);
    out_ += "\":";
    after_key_ = true;
  }

  void value_string(std::string_view value) {
    comma();
    out_ += '"';
    out_ += json_escape(value);
    out_ += '"';
  }
  void value_uint(std::uint64_t value) {
    comma();
    out_ += std::to_string(value);
  }
  void value_int(std::int64_t value) {
    comma();
    out_ += std::to_string(value);
  }
  void value_double(double value);
  void value_bool(bool value) {
    comma();
    out_ += value ? "true" : "false";
  }
  // Splices pre-rendered JSON (caller guarantees validity).
  void value_raw(std::string_view raw) {
    comma();
    out_ += raw;
  }

  std::string str() && { return std::move(out_); }

 private:
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  void open(char c) {
    comma();
    out_ += c;
    need_comma_ = false;
  }
  void close(char c) {
    out_ += c;
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
  bool after_key_ = false;
};

// A parsed JSON value. Numbers keep a double plus, for integer literals, an
// exact int64 view (literals in [-2^63, 2^63)) and an exact uint64 view
// (literals in [0, 2^64)); object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  bool number_is_integer = false;  // int_value is exact
  std::int64_t int_value = 0;
  bool number_is_uint = false;  // uint_value is exact
  std::uint64_t uint_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // Object member lookup; nullptr if absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

// Strict parse of a complete JSON document (trailing garbage rejected; an
// object naming the same member twice is rejected as `duplicate key`).
StatusOr<JsonValue> parse_json(std::string_view text);

}  // namespace lbsa::obs

#endif  // LBSA_OBS_JSON_H_
