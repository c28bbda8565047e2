// Minimal JSON emit/parse for the observability layer.
//
// RunReports and trace files are machine-readable JSON; this module is
// the whole dependency. The Writer produces compact, correctly escaped
// output with explicit begin/end structure calls; the parser is a strict
// recursive-descent reader of the same subset (objects, arrays, strings,
// finite numbers, booleans, null) used by the round-trip tests and the
// CI report validator. Not a general-purpose JSON library: no comments,
// no trailing commas, numbers go through double (exact for integers up
// to 2^53, which covers every counter this layer emits).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace s2s::obs::json {

/// Streaming writer; calls must describe a well-formed document
/// (object/array nesting balanced, key() before every object value).
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view name);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v);
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(bool v);
  Writer& null();

  const std::string& str() const noexcept { return out_; }

 private:
  void separate();

  std::string out_;
  std::vector<bool> has_item_;  ///< per open scope: a value was emitted
  bool after_key_ = false;
};

/// Parsed JSON value (tree form).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_bool() const noexcept { return kind == Kind::kBool; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_object() const noexcept { return kind == Kind::kObject; }

  std::uint64_t as_u64() const noexcept {
    return number < 0 ? 0 : static_cast<std::uint64_t>(number + 0.5);
  }
  std::int64_t as_i64() const noexcept {
    return static_cast<std::int64_t>(number);
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view name) const;
};

/// Strict parse of a complete document; nullopt on any syntax error or
/// trailing garbage.
std::optional<Value> parse(std::string_view text);

}  // namespace s2s::obs::json
