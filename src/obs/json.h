#ifndef AXMLX_OBS_JSON_H_
#define AXMLX_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace axmlx::obs {

/// Escapes `s` for embedding inside a JSON string literal (surrounding
/// quotes are the caller's job). Control characters become \uXXXX.
std::string JsonEscape(const std::string& s);

/// JsonEscape appending into `out` (no temporary per field).
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Minimal JSON document model. Writer-side code (metrics, spans, bench
/// reports) builds JSON by concatenation with JsonEscape; this parser exists
/// so the report tooling can validate what was written without an external
/// dependency.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;  ///< kArray elements, in order.
  /// kObject members, in document order (duplicate keys keep the first).
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// number rounded to int64 (0 when not a number).
  int64_t AsInt() const;
};

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// garbage is an error). Returns nullopt and fills `error` on bad input.
std::optional<JsonValue> ParseJson(const std::string& text,
                                   std::string* error = nullptr);

}  // namespace axmlx::obs

#endif  // AXMLX_OBS_JSON_H_
