// Besides the line reader and the JSON record checks, this file holds
// the one sanctioned use of the raw C conversion routines in the
// ingestion layer (eagle-lint IN01): both are wrapped with full
// end-pointer, errno and finiteness checks so callers only ever see
// bool + value.
#include "graph/record_reader.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace eagle::graph {

using support::ErrorCode;
using support::Status;
namespace json = support::json;

namespace {

// strtoll/strtod need a NUL-terminated buffer; tokens are short, so a
// stack-friendly std::string copy is fine on this cold path. Leading
// whitespace is rejected up front — strtol-family skips it, and a token
// with embedded whitespace is a tokenizer bug, not a number.
bool PrepareToken(std::string_view token, std::string* buffer) {
  if (token.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(token.front());
  if (std::isspace(first)) return false;
  buffer->assign(token.data(), token.size());
  return true;
}

// Classifies a failed numeric conversion: a token that *tried* to be a
// number is an overflow, anything else is a syntax error.
ErrorCode NumericFailCode(std::string_view token) {
  return LooksNumeric(token) ? ErrorCode::kNumericOverflow
                             : ErrorCode::kSyntax;
}

bool ParseNumber(std::string_view token, double* out) {
  return ParseDouble(token, out);
}
bool ParseNumber(std::string_view token, std::int64_t* out) {
  return ParseInt64(token, out);
}

// The shared body of NumberAttr and NonNegative. An attribute's messages
// say "<key> value"; every message is built on the error path only.
template <typename T>
Status CheckNumber(const LineReader& reader, const Token& value,
                   std::string_view noun, bool is_attr, Sign sign, T* out) {
  T v{};
  const char* unit = is_attr ? " value " : " ";
  if (!ParseNumber(value.text, &v)) {
    return reader.Error(NumericFailCode(value.text),
                        "bad " + std::string(noun) + unit + Quote(value.text),
                        value);
  }
  if (sign == Sign::kPositive && !(v > 0)) {
    return reader.Error(
        ErrorCode::kNumericOverflow,
        std::string(noun) + " must be positive, got " + Quote(value.text),
        value);
  }
  if (v < 0) {
    return reader.Error(
        ErrorCode::kNumericOverflow,
        "negative " + std::string(noun) + unit + Quote(value.text), value);
  }
  *out = v;
  return Status::Ok();
}

}  // namespace

bool ParseInt64(std::string_view token, std::int64_t* out) {
  std::string buffer;
  if (!PrepareToken(token, &buffer)) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) return false;
  if (end != buffer.c_str() + buffer.size()) return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

bool ParseDouble(std::string_view token, double* out) {
  std::string buffer;
  if (!PrepareToken(token, &buffer)) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  // Overflow parses to ±inf with ERANGE; literal "inf"/"nan" parse
  // cleanly — both are meaningless as costs or sizes, so reject them all.
  if (errno == ERANGE || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool LooksNumeric(std::string_view token) {
  if (token.empty()) return false;
  bool has_digit = false;
  for (char c : token) {
    if (c >= '0' && c <= '9') {
      has_digit = true;
    } else if (c != '+' && c != '-' && c != '.' && c != 'e' && c != 'E') {
      return false;
    }
  }
  return has_digit;
}

bool JsonToInt64(double v, std::int64_t* out) {
  if (!std::isfinite(v) || std::floor(v) != v) return false;
  if (v < -9223372036854775808.0 || v >= 9223372036854775808.0) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

std::string Quote(std::string_view s) {
  return std::string(1, '\'').append(s).append(1, '\'');
}

bool KeyValue(const Token& tok, std::string_view key, Token* value) {
  if (tok.text.size() <= key.size() || tok.text[key.size()] != '=' ||
      tok.text.compare(0, key.size(), key) != 0) {
    return false;
  }
  *value = Token{tok.text.substr(key.size() + 1),
                 tok.col + static_cast<int>(key.size()) + 1};
  return true;
}

// ---------------------------------------------------------------------------
// LineReader.

LineReader::LineReader(std::istream& in, const std::string& source)
    : in_(in), source_(source) {}

bool LineReader::Next() {
  while (std::getline(in_, text_)) {
    ++line_;
    if (!text_.empty() && text_.back() == '\r') text_.pop_back();
    tokens_.clear();
    const std::string_view sv(text_);
    std::size_t i = 0;
    while (i < sv.size()) {
      if (sv[i] == ' ' || sv[i] == '\t') {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < sv.size() && sv[j] != ' ' && sv[j] != '\t') ++j;
      tokens_.push_back(Token{sv.substr(i, j - i), static_cast<int>(i) + 1});
      i = j;
    }
    if (!tokens_.empty() && tokens_[0].text[0] != '#') return true;
  }
  return false;
}

Status LineReader::At(Status status, const Token& at) const {
  status.At(source_, line_, at.col);
  return status;
}

Status LineReader::Unknown(std::string_view what, const Token& tok) const {
  return Error(ErrorCode::kSyntax,
               "unknown " + std::string(what) + " " + Quote(tok.text), tok);
}

Status LineReader::Finish() const {
  if (!in_.bad()) return Status::Ok();
  return Status::Error(ErrorCode::kIo, "read error").At(source_, line_);
}

template <typename T>
bool LineReader::NumberAttr(const Token& tok, std::string_view key, Sign sign,
                            T* out, Status* status) const {
  Token value;
  if (!KeyValue(tok, key, &value)) return false;
  *status = CheckNumber(*this, value, key, /*is_attr=*/true, sign, out);
  return true;
}
template bool LineReader::NumberAttr(const Token&, std::string_view, Sign,
                                     double*, Status*) const;
template bool LineReader::NumberAttr(const Token&, std::string_view, Sign,
                                     std::int64_t*, Status*) const;

Status LineReader::NonNegative(const Token& value, std::string_view noun,
                               std::int64_t* out) const {
  return CheckNumber(*this, value, noun, /*is_attr=*/false,
                     Sign::kNonNegative, out);
}

Status LineReader::Integer(const Token& value, std::string_view noun,
                           std::int64_t lo, std::int64_t hi,
                           std::int64_t* out) const {
  std::int64_t v = 0;
  if (!ParseInt64(value.text, &v) || v < lo || v > hi) {
    return Error(NumericFailCode(value.text),
                 "bad " + std::string(noun) + " " + Quote(value.text), value);
  }
  *out = v;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// JSON.

Status ParseJsonObject(const std::string& text, const std::string& source,
                       json::Value* root) {
  std::string error;
  std::size_t offset = 0;
  *root = json::Value::Parse(text, &error, &offset);
  if (!error.empty()) {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < offset && i < text.size(); ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::Error(ErrorCode::kSyntax, "JSON " + error)
        .At(source, line, col);
  }
  if (!root->is_object()) {
    return Status::Error(ErrorCode::kSyntax,
                         "top-level JSON value must be an object")
        .At(source, 1, 1);
  }
  return Status::Ok();
}

Status RequireArray(const json::Value& object, const char* key,
                    const std::string& source, const json::Value** out) {
  *out = object.Find(key);
  if (*out != nullptr && (*out)->is_array()) return Status::Ok();
  return Status::Error(ErrorCode::kSyntax,
                       std::string("missing or non-array \"") + key +
                           "\" field")
      .At(source);
}

bool IsString(const json::Value& v) { return v.is_string(); }
bool IsNonEmptyString(const json::Value& v) {
  return v.is_string() && !v.string_value().empty();
}
bool IsNumber(const json::Value& v) { return v.is_number(); }
bool IsArray(const json::Value& v) { return v.is_array(); }

JsonRecord::JsonRecord(const json::Value& value, const char* name,
                       std::size_t index, const std::string& source)
    : value_(value), name_(name), index_(index), source_(source) {
  if (value.is_object()) return;
  status_ = Status::Error(ErrorCode::kSyntax,
                          index == kField
                              ? std::string("\"") + name + "\" is not an object"
                              : Name() + " is not an object")
                .At(source_);
}

std::string JsonRecord::Name() const {
  if (index_ == kField) return name_;
  return std::string(name_) + "[" + std::to_string(index_) + "]";
}

const json::Value* JsonRecord::Require(const char* key, JsonCheck check,
                                       const char* what) {
  if (!ok()) return nullptr;
  const json::Value* v = value_.Find(key);
  if (v != nullptr && check(*v)) return v;
  Fail(ErrorCode::kSyntax,
       std::string(" has a ") + what + " \"" + key + "\"");
  return nullptr;
}

const json::Value* JsonRecord::Optional(const char* key, JsonCheck check,
                                        const char* what) {
  if (!ok() || value_.Find(key) == nullptr) return nullptr;
  return Require(key, check, what);
}

void JsonRecord::Number(const char* key, Sign sign, double* out) {
  const json::Value* v = ok() ? value_.Find(key) : nullptr;
  if (v == nullptr) return;
  const double x = v->number();
  if (!v->is_number() || !std::isfinite(x) ||
      (sign == Sign::kPositive ? !(x > 0.0) : x < 0.0)) {
    Fail(ErrorCode::kNumericOverflow,
         std::string(" has a bad \"") + key + "\" value");
    return;
  }
  *out = x;
}

void JsonRecord::Integer(const char* key, std::int64_t lo, std::int64_t hi,
                         std::int64_t* out) {
  const json::Value* v = ok() ? value_.Find(key) : nullptr;
  if (v == nullptr) return;
  std::int64_t x = 0;
  if (!v->is_number() || !JsonToInt64(v->number(), &x) || x < lo || x > hi) {
    Fail(ErrorCode::kNumericOverflow,
         std::string(" has a bad \"") + key + "\" value");
    return;
  }
  *out = x;
}

void JsonRecord::Bool(const char* key, bool* out) {
  const json::Value* v = ok() ? value_.Find(key) : nullptr;
  if (v == nullptr) return;
  if (!v->is_bool()) {
    Fail(ErrorCode::kSyntax, std::string(" has a non-boolean \"") + key + "\"");
    return;
  }
  *out = v->bool_value();
}

const Status& JsonRecord::Fail(ErrorCode code, std::string_view detail) {
  if (ok()) {
    status_ = Status::Error(code, Name() + std::string(detail)).At(source_);
  }
  return status_;
}

const Status& JsonRecord::Wrap(const Status& inner) {
  return Fail(inner.code(), ": " + inner.message());
}

}  // namespace eagle::graph
