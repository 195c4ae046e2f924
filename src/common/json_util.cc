#include "common/json_util.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace dbg4eth {
namespace json {

void AppendJsonEscaped(const std::string& s, std::string* out) {
  // Each run of bytes that needs no escape goes out in one append.
  size_t run_start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s, run_start, i - run_start);
    run_start = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s, run_start, std::string::npos);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

namespace {

void AppendNumberRoundTrip(double v, std::string* out) {
  if (std::isfinite(v)) {
    AppendShortestDouble(v, out);
  } else {
    *out += "null";
  }
}

}  // namespace

std::string JsonNumberRoundTrip(double v) {
  std::string out;
  AppendNumberRoundTrip(v, &out);
  return out;
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;  // The Key already placed the comma and the colon.
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) *out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  *out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  has_element_.pop_back();
  *out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  *out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  has_element_.pop_back();
  *out_ += ']';
}

void JsonWriter::Key(const std::string& name) {
  if (!has_element_.empty()) {
    if (has_element_.back()) *out_ += ',';
    has_element_.back() = true;
  }
  *out_ += '"';
  AppendJsonEscaped(name, out_);
  *out_ += "\": ";
  after_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  BeforeValue();
  *out_ += '"';
  AppendJsonEscaped(value, out_);
  *out_ += '"';
}

void JsonWriter::Number(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    *out_ += "null";
    return;
  }
  *out_ += StrFormat("%g", value);
}

void JsonWriter::NumberRoundTrip(double value) {
  BeforeValue();
  AppendNumberRoundTrip(value, out_);
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  AppendDecimal(value, out_);
}

void JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  AppendDecimal(value, out_);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  *out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  *out_ += "null";
}

void JsonWriter::Raw(const std::string& value) {
  BeforeValue();
  *out_ += value;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& member : members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Result<int64_t> JsonValue::AsInt64() const {
  if (kind != Kind::kNumber) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  const double v = number_value;
  // int64 bounds that are exactly representable as doubles.
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0) ||
      v != std::floor(v)) {
    return Status::InvalidArgument(
        StrFormat("JSON number %g is not an exact int64", v));
  }
  return static_cast<int64_t>(v);
}

namespace {

/// Recursive-descent parser over a raw byte range.
class Parser {
 public:
  Parser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> ParseDocument() {
    JsonValue value;
    DBG4ETH_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& why) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at byte %zu: %s", pos_, why.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        if (!ConsumeLiteral("true")) return Fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("bad literal");
        out->kind = JsonValue::Kind::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      DBG4ETH_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      DBG4ETH_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      if (out->Find(key) == nullptr) {
        out->members.emplace_back(std::move(key), std::move(value));
      }
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      JsonValue value;
      DBG4ETH_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control byte in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return Fail("dangling escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any request body this repo produces; a lone
          // surrogate encodes as its raw 3-byte sequence).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const size_t digits_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == digits_start) {
      pos_ = start;
      return Fail("expected a value");
    }
    // JSON forbids leading zeros: 0, 0.5 and 0e1 are fine, 01 is not.
    if (text_[digits_start] == '0' && pos_ - digits_start > 1) {
      return Fail("leading zeros are not allowed");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const size_t frac_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac_start) return Fail("digits required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const size_t exp_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp_start) return Fail("digits required in exponent");
    }
    // Underflow to zero or a subnormal is fine; overflow to +-inf is not a
    // value JSON can carry (JsonWriter would write it back as null).
    const double value = std::strtod(text_.c_str() + start, nullptr);
    if (std::isinf(value)) {
      pos_ = start;
      return Fail("number out of range");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return Status::OK();
  }

  const std::string& text_;
  const int max_depth_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text, int max_depth) {
  return Parser(text, max_depth).ParseDocument();
}

}  // namespace json
}  // namespace dbg4eth
