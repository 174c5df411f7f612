// The one front end for untrusted input files.
//
// The graph importer (graph/ingest.h: .eg and .json graphs) and the
// cluster importer (sim/cluster_ingest.h: .ec and .json cluster specs)
// read the same two shapes of input — a line format of
// `directive token... key=value...` lines, and a JSON object of record
// arrays — and report every failure as a support::Status from the shared
// taxonomy, positioned at file:line:column. This module owns what the
// formats share: checked string→number conversion, the line reader and
// its key=value numbers, the JSON record wrapper, the no-throw guard and
// the open/suffix-dispatch file import. Each importer keeps only its own
// grammar and domain checks.
//
// std::stoll / std::stod are the wrong tool for untrusted input: they
// throw and silently accept trailing garbage ("12abc" → 12). The checked
// conversions here never throw, require the whole token, and reject
// overflow and non-finite values; eagle-lint rule IN01 bans the raw
// conversions in the ingestion layer everywhere except record_reader.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <new>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/byte_io.h"
#include "support/json.h"
#include "support/status.h"

namespace eagle::graph {

// ---------------------------------------------------------------------------
// Checked conversions.

// Base-10 signed integer. False on empty token, non-digit characters,
// trailing garbage, or a value outside int64 range.
bool ParseInt64(std::string_view token, std::int64_t* out);

// Decimal / scientific floating point. False on empty token, trailing
// garbage, or a non-finite result (overflow to inf, "nan", "inf").
bool ParseDouble(std::string_view token, double* out);

// True when the token is plausibly a number (digits, sign, '.', 'e'):
// used to classify a failed conversion as numeric-overflow (it *tried*
// to be a number) versus plain syntax.
bool LooksNumeric(std::string_view token);

// Exact double→int64 conversion for JSON quantities; false on
// non-finite, fractional, or out-of-range values (a bare static_cast
// would be undefined behaviour on those).
bool JsonToInt64(double v, std::int64_t* out);

// How diagnostics quote input text: 'text'.
std::string Quote(std::string_view s);

// The sign a quantity must have.
enum class Sign { kNonNegative, kPositive };

// ---------------------------------------------------------------------------
// Line formats.

// A whitespace-delimited token and the 1-based column it starts at.
struct Token {
  std::string_view text;
  int col = 0;
};

// The `<value>` of a `<key>=<value>` token, positioned at its own column.
// False for any other token.
bool KeyValue(const Token& tok, std::string_view key, Token* value);

// Streams a line format: one directive per line, tokens separated by
// spaces or tabs. Every error it builds is positioned at the current
// line and a token's column.
class LineReader {
 public:
  // Both references must outlive the reader.
  LineReader(std::istream& in, const std::string& source);

  // Advances to the next line holding a directive, skipping blank lines
  // and `#` comments and dropping a CRLF's CR. False at end of input.
  bool Next();
  // The current line's tokens (never empty); valid until Next().
  const std::vector<Token>& tokens() const { return tokens_; }
  int line() const { return line_; }

  // `status` positioned at the current line and `at`'s column.
  support::Status At(support::Status status, const Token& at) const;
  support::Status Error(support::ErrorCode code, std::string message,
                        const Token& at) const {
    return At(support::Status::Error(code, std::move(message)), at);
  }
  // kSyntax "unknown <what> '<tok>'" at `tok`, for a directive or
  // attribute the grammar does not know.
  support::Status Unknown(std::string_view what, const Token& tok) const;
  // After Next() returns false: kIo "read error" when the stream failed
  // instead of ending.
  support::Status Finish() const;

  // When `tok` is `<key>=<value>`, parses the value into *out under
  // `sign`, stores the outcome in *status and returns true; returns
  // false, *status untouched, for any other token. Failures name the
  // key: "bad <key> value '<v>'" (syntax, or numeric-overflow when the
  // value looks numeric), "negative <key> value '<v>'" and "<key> must
  // be positive, got '<v>'" (numeric-overflow).
  template <typename T>  // double or std::int64_t
  bool NumberAttr(const Token& tok, std::string_view key, Sign sign, T* out,
                  support::Status* status) const;
  // `value` as an int64 ≥ 0: "bad <noun> '<v>'" / "negative <noun> '<v>'".
  support::Status NonNegative(const Token& value, std::string_view noun,
                              std::int64_t* out) const;
  // `value` as an int64 in [lo, hi]; "bad <noun> '<v>'" otherwise.
  support::Status Integer(const Token& value, std::string_view noun,
                          std::int64_t lo, std::int64_t hi,
                          std::int64_t* out) const;

 private:
  std::istream& in_;
  const std::string& source_;
  std::string text_;
  std::vector<Token> tokens_;
  int line_ = 0;
};

// ---------------------------------------------------------------------------
// JSON formats. JSON values carry no positions, so only syntax errors
// have a line:column; semantic errors name the record instead.

// Parses `text` into *root, which must be an object: kSyntax "JSON
// <error>" at the failing line:column, or "top-level JSON value must be
// an object" at 1:1.
support::Status ParseJsonObject(const std::string& text,
                                const std::string& source,
                                support::json::Value* root);

// The array field `key` of `object`: kSyntax "missing or non-array
// \"<key>\" field" when it is absent or not an array.
support::Status RequireArray(const support::json::Value& object,
                             const char* key, const std::string& source,
                             const support::json::Value** out);

// Field predicates for JsonRecord::Require / Optional.
using JsonCheck = bool (*)(const support::json::Value&);
bool IsString(const support::json::Value& v);
bool IsNonEmptyString(const support::json::Value& v);
bool IsNumber(const support::json::Value& v);
bool IsArray(const support::json::Value& v);

// One record: element `index` of the top-level array `name` ("ops[3]")
// or, with index kField, the top-level object field `name`
// ("default_link"). Field reads are checked, and every diagnostic starts
// with the record's name. The first failed check is kept and later
// checks do nothing, so an importer reads every field and tests ok()
// once.
class JsonRecord {
 public:
  static constexpr std::size_t kField = static_cast<std::size_t>(-1);

  // kSyntax "<record> is not an object" (for a field: "\"<name>\" is not
  // an object") unless `value` is one. The references must outlive the
  // record.
  JsonRecord(const support::json::Value& value, const char* name,
             std::size_t index, const std::string& source);

  bool ok() const { return status_.ok(); }
  const support::Status& status() const { return status_; }

  // The field `key` when it passes `check`; otherwise kSyntax "<record>
  // has a <what> \"<key>\"". Null once any check has failed.
  const support::json::Value* Require(const char* key, JsonCheck check,
                                      const char* what);
  // As Require, but an absent field is no error (null).
  const support::json::Value* Optional(const char* key, JsonCheck check,
                                       const char* what);
  // Optional finite number under `sign`, or integer in [lo, hi]:
  // kNumericOverflow "<record> has a bad \"<key>\" value" otherwise.
  void Number(const char* key, Sign sign, double* out);
  void Integer(const char* key, std::int64_t lo, std::int64_t hi,
               std::int64_t* out);
  // Optional bool: kSyntax "<record> has a non-boolean \"<key>\"".
  void Bool(const char* key, bool* out);

  // Records `code` with "<record><detail>" (detail starts with ' ' or
  // ':') unless a check already failed; returns the kept status.
  const support::Status& Fail(support::ErrorCode code,
                              std::string_view detail);
  // Records `inner`'s code with "<record>: <inner message>".
  const support::Status& Wrap(const support::Status& inner);

 private:
  std::string Name() const;

  const support::json::Value& value_;
  const char* name_;
  std::size_t index_;
  const std::string& source_;
  support::Status status_;
};

// ---------------------------------------------------------------------------
// No-throw guard and file import.

// Runs `parse`, turning an exception that escapes it into a status at
// `source`. The importers pre-check the preconditions of everything they
// call, so this only catches out-of-memory and latent bugs — which must
// surface as a Status, not a terminate().
template <typename Parse>
auto NoThrow(const std::string& source, Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::bad_alloc&) {
    return support::Status::Error(support::ErrorCode::kResourceLimit,
                                  "out of memory while parsing")
        .At(source);
  } catch (const std::exception& e) {
    return support::Status::Error(
               support::ErrorCode::kSyntax,
               std::string("internal parser error: ") + e.what())
        .At(source);
  }
}

// Imports the file at `path`, which names every diagnostic: kIo "cannot
// open <kind> file" when it cannot be opened. A ".json" path is read
// whole and handed to parse_json; any other path is streamed to
// parse_text. Both parsers run under NoThrow.
template <typename ParseText, typename ParseJson>
auto ImportFile(const std::string& path, const char* kind,
                ParseText&& parse_text, ParseJson&& parse_json)
    -> decltype(parse_json(path)) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return support::Status::Error(support::ErrorCode::kIo,
                                  std::string("cannot open ") + kind +
                                      " file")
        .At(path);
  }
  const bool is_json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (!is_json) return NoThrow(path, [&] { return parse_text(in); });
  std::string text;
  support::Status status = support::ReadAll(in, &text);
  if (!status.ok()) return status.At(path);
  return NoThrow(path, [&] { return parse_json(text); });
}

}  // namespace eagle::graph
