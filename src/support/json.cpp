#include "support/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace eagle::support::json {

// Named (not anonymous) so the friend declaration in json.h applies.
class Parser {
 public:
  Parser(const std::string& text, std::string* error,
         std::size_t* error_offset = nullptr)
      : text_(text), error_(error), error_offset_(error_offset) {}

  Value Run() {
    Value value = ParseValue();
    SkipSpace();
    if (!failed_ && pos_ != text_.size()) {
      Fail("trailing characters after JSON value");
    }
    return failed_ ? Value() : value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void Fail(const std::string& message) {
    if (!failed_) {
      if (error_ != nullptr) {
        std::ostringstream os;
        os << "at offset " << pos_ << ": " << message;
        *error_ = os.str();
      }
      if (error_offset_ != nullptr) *error_offset_ = pos_;
    }
    failed_ = true;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    std::size_t len = 0;
    while (word[len] != '\0') ++len;
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value ParseValue() {
    SkipSpace();
    if (failed_ || pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return Value();
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    Value value;
    if (ConsumeWord("null")) return value;
    if (ConsumeWord("true")) {
      value.kind_ = Value::Kind::kBool;
      value.bool_ = true;
      return value;
    }
    if (ConsumeWord("false")) {
      value.kind_ = Value::Kind::kBool;
      value.bool_ = false;
      return value;
    }
    Fail("unexpected character");
    return Value();
  }

  Value ParseObject() {
    Value value;
    value.kind_ = Value::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return value;
    while (!failed_) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail("expected object key");
        break;
      }
      Value key = ParseString();
      SkipSpace();
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        break;
      }
      value.fields_[key.string_] = ParseValue();
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      Fail("expected ',' or '}' in object");
    }
    return Value();
  }

  Value ParseArray() {
    Value value;
    value.kind_ = Value::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return value;
    while (!failed_) {
      value.items_.push_back(ParseValue());
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      Fail("expected ',' or ']' in array");
    }
    return Value();
  }

  Value ParseString() {
    Value value;
    value.kind_ = Value::Kind::kString;
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': value.string_ += '"'; break;
          case '\\': value.string_ += '\\'; break;
          case '/': value.string_ += '/'; break;
          case 'b': value.string_ += '\b'; break;
          case 'f': value.string_ += '\f'; break;
          case 'n': value.string_ += '\n'; break;
          case 'r': value.string_ += '\r'; break;
          case 't': value.string_ += '\t'; break;
          case 'u': {
            // Only \u0000–\u007F, the range Escape writes.
            const std::string hex = text_.substr(pos_, 4);
            const bool is_hex =
                hex.size() == 4 &&
                std::all_of(hex.begin(), hex.end(), [](char h) {
                  return std::isxdigit(static_cast<unsigned char>(h)) != 0;
                });
            const unsigned long code =
                is_hex ? std::stoul(hex, nullptr, 16) : 0x80;
            if (code > 0x7F) {
              Fail("unsupported escape sequence");
              return Value();
            }
            pos_ += 4;
            value.string_ += static_cast<char>(code);
            break;
          }
          default:
            Fail("unsupported escape sequence");
            return Value();
        }
        continue;
      }
      value.string_ += c;
    }
    Fail("unterminated string");
    return Value();
  }

  Value ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      Fail("malformed number '" + token + "'");
      return Value();
    }
    Value value;
    value.kind_ = Value::Kind::kNumber;
    value.number_ = parsed;
    return value;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t* error_offset_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

Value Value::Parse(const std::string& text, std::string* error) {
  return Parser(text, error).Run();
}

Value Value::Parse(const std::string& text, std::string* error,
                   std::size_t* error_offset) {
  return Parser(text, error, error_offset).Run();
}

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

std::string Value::StringOr(const std::string& key,
                            const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_value() : fallback;
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace eagle::support::json
