#ifndef DBG4ETH_COMMON_JSON_UTIL_H_
#define DBG4ETH_COMMON_JSON_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dbg4eth {
namespace json {

/// \brief Shared JSON plumbing (see DESIGN.md "Network layer").
///
/// One escape routine, one incremental writer and one minimal parser,
/// used by both the obs exporters (src/obs/export.cc) and the HTTP layer
/// (src/net) so the two never drift on escaping or number formatting.
/// The parser covers exactly the subset the request bodies need: objects,
/// arrays, strings, numbers, booleans and null, with a recursion-depth
/// bound — it is not a streaming or validating-everything parser.

/// Appends `s` to `out` with JSON string escaping: `"` `\` the common
/// control escapes (\n \r \t \b \f) and \u00XX for other control bytes.
void AppendJsonEscaped(const std::string& s, std::string* out);

/// Convenience wrapper: the escaped rendering of `s` (no quotes).
std::string JsonEscape(const std::string& s);

/// Renders `v` as the shortest text that parses back to the identical
/// double (std::to_chars' round-trip digits, fixed or scientific, e.g.
/// "0.1" or "1e-04"); non-finite values render as JSON null, which has no
/// number syntax for them.
std::string JsonNumberRoundTrip(double v);

/// \brief Comma-and-quote bookkeeping for hand-assembled JSON.
///
/// Appends compact JSON (one space after each key's colon, no newlines)
/// to a caller-owned string. The writer tracks
/// nesting and whether a separator is due, so call sites read like the
/// document they produce:
///
///   JsonWriter w(&out);
///   w.BeginObject();
///   w.Key("address"); w.Int(42);
///   w.Key("scores"); w.BeginArray(); w.Number(0.5); w.EndArray();
///   w.EndObject();
///
/// The writer never validates that the result is a complete document;
/// mismatched Begin/End pairs are the caller's bug.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Object member key; must be followed by exactly one value call.
  void Key(const std::string& name);

  void String(const std::string& value);
  /// %g rendering — compact, for human-facing numbers.
  void Number(double value);
  /// Bit-exact rendering (JsonNumberRoundTrip) — for values a client
  /// must read back identically, e.g. model scores.
  void NumberRoundTrip(double value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Bool(bool value);
  void Null();
  /// Splices `value` verbatim as one JSON value (must already be valid
  /// JSON, e.g. a pre-rendered sub-document).
  void Raw(const std::string& value);

 private:
  /// Emits a pending comma and marks a value as written at this depth.
  void BeforeValue();

  std::string* out_;
  /// One flag per open scope: true once the scope holds an element.
  std::vector<bool> has_element_;
  /// A Key was just written; the next value is its member value.
  bool after_key_ = false;
};

/// \brief One parsed JSON value (tree-shaped, order-preserving objects).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  ///< kArray elements.
  /// kObject members in document order (duplicate keys keep the first).
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// The number as an integer; error when not a number or not exactly
  /// representable as int64 (rejects 1.5 and 1e300, accepts 42 and 4.0e1).
  Result<int64_t> AsInt64() const;
};

/// \brief Parses one JSON document (trailing content is an error).
///
/// `max_depth` bounds object/array nesting so hostile bodies cannot
/// overflow the stack: the top-level value is at depth 0, a member or
/// element one level below its container, and a value deeper than
/// `max_depth` is an error. A number that overflows a double is an error;
/// one that underflows parses as zero or a subnormal.
Result<JsonValue> ParseJson(const std::string& text, int max_depth = 64);

}  // namespace json
}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_JSON_UTIL_H_
