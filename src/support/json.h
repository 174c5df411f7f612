// Minimal JSON: a parser for the artifacts this repo emits (run
// telemetry JSONL, bench history exports, Chrome traces) and the escape /
// number helpers the writers share.
//
// Scope is deliberately small — standard JSON with \uXXXX escapes limited
// to \u0000–\u007F (Escape writes \u00XX for control bytes; every other
// byte passes through raw, so any string round-trips): null/true/false,
// doubles, strings, arrays, objects. Object fields are stored in a sorted
// std::map so consumers iterate deterministically.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eagle::support::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  // Parses `text`. On failure returns a null Value and, when `error` is
  // non-null, stores a human-readable position + message.
  static Value Parse(const std::string& text, std::string* error = nullptr);
  // As above, but additionally reports the byte offset the parse failed
  // at, so callers owning the original text can turn it into line:column
  // (the graph JSON importer does this for its diagnostics).
  static Value Parse(const std::string& text, std::string* error,
                     std::size_t* error_offset);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<Value>& items() const { return items_; }
  const std::map<std::string, Value>& fields() const { return fields_; }

  // Object field lookup; null pointer when absent or not an object.
  const Value* Find(const std::string& key) const;
  // Convenience accessors with defaults, for tolerant consumers.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::map<std::string, Value> fields_;

  friend class Parser;
};

// Escapes ", \ and control characters for embedding in a JSON string.
std::string Escape(const std::string& s);

// Renders a double as a JSON token: round-trippable precision, and the
// JSON literal `null` for non-finite values (JSON has no Infinity — the
// same sentinel convention as the bench history exports).
std::string Num(double v);

}  // namespace eagle::support::json
