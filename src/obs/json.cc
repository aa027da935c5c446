#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/check.h"

namespace lbsa::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::value_double(double value) {
  comma();
  // JSON has no inf/nan. Silently clamping would launder a wrong number
  // into every downstream consumer; a non-finite value here is always an
  // upstream arithmetic bug (e.g. an unguarded division), so refuse.
  LBSA_CHECK_MSG(std::isfinite(value),
                 "value_double: non-finite value (JSON cannot represent "
                 "inf/nan; fix the producer)");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out_ += buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> parse() {
    JsonValue value;
    Status s = parse_value(&value, 0);
    if (!s.is_ok()) return s;
    skip_ws();
    if (pos_ != text_.size()) {
      return invalid_argument("json: trailing characters at offset " +
                              std::to_string(pos_));
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status fail(const std::string& what) {
    return invalid_argument("json: " + what + " at offset " +
                            std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->string_value);
    }
    if (c == 't' || c == 'f') return parse_literal(out);
    if (c == 'n') return parse_literal(out);
    return parse_number(out);
  }

  Status parse_literal(JsonValue* out) {
    auto match = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Status::ok();
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Status::ok();
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::ok();
    }
    return fail("invalid literal");
  }

  Status parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("invalid number");
    // strtod is laxer than JSON: it returns ±HUGE_VAL for overflowing
    // literals like 1e999 (and accepts inf/nan spellings, though the
    // tokenizer above never forwards those). A strict parser must not
    // materialize values JSON itself cannot round-trip.
    if (!std::isfinite(out->number_value)) {
      return fail("number out of range (non-finite)");
    }
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && *end == '\0') {
        out->number_is_integer = true;
        out->int_value = static_cast<std::int64_t>(v);
        out->number_is_uint = v >= 0;
        out->uint_value = static_cast<std::uint64_t>(v);
      } else if (token[0] != '-') {
        // [2^63, 2^64): a uint64 counter's upper half (strtoull would
        // silently negate a '-' literal, hence the sign test).
        errno = 0;
        const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && *end == '\0') {
          out->number_is_uint = true;
          out->uint_value = static_cast<std::uint64_t>(u);
        }
      }
    }
    return Status::ok();
  }

  Status parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as-is; trace/report content is ASCII in practice).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  Status parse_array(JsonValue* out, int depth) {
    consume('[');
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      JsonValue element;
      Status s = parse_value(&element, depth + 1);
      if (!s.is_ok()) return s;
      out->array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return Status::ok();
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  Status parse_object(JsonValue* out, int depth) {
    consume('{');
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      std::string key;
      Status s = parse_string(&key);
      if (!s.is_ok()) return s;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      s = parse_value(&value, depth + 1);
      if (!s.is_ok()) return s;
      out->members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return check_unique_keys(*out);
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  // A repeated member name is ambiguous (readers disagree on which value
  // wins), so the strict parser refuses it. Sorting the names keeps
  // adversarial many-member objects O(n log n).
  Status check_unique_keys(const JsonValue& object) {
    const auto& members = object.members;
    if (members.size() < 2) return Status::ok();
    std::vector<std::string_view> names;
    names.reserve(members.size());
    for (const auto& member : members) names.emplace_back(member.first);
    std::sort(names.begin(), names.end());
    const auto dup = std::adjacent_find(names.begin(), names.end());
    if (dup == names.end()) return Status::ok();
    return fail("duplicate key \"" + std::string(*dup) + "\"");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> parse_json(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace lbsa::obs
