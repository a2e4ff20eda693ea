// Minimal JSON DOM: enough to read back the library's own emitted
// reports (bench/regress baselines, stats dumps). Parses the full JSON
// grammar minus \u surrogate pairs (escapes decode to '?'); numbers are
// doubles. Not a streaming parser — inputs are small report files.
//
// JsonWriter is the emission counterpart: an append-only streaming
// writer that tracks nesting and comma placement, so emitters stop
// hand-rolling string concatenation (the tune cache and the autotune
// bench write through it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ag {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed access with defaults (wrong kind returns the default).
  bool as_bool(bool dflt = false) const { return kind_ == Kind::kBool ? bool_ : dflt; }
  double as_number(double dflt = 0) const { return kind_ == Kind::kNumber ? num_ : dflt; }
  const std::string& as_string() const { return str_; }

  const std::vector<JsonValue>& items() const { return arr_; }
  std::size_t size() const { return arr_.size(); }

  /// Object member lookup; a shared null value when absent or not an
  /// object, so lookups chain without null checks.
  const JsonValue& operator[](const std::string& key) const;
  bool has(const std::string& key) const { return obj_.count(key) != 0; }

  /// Parses `text`; on failure returns a null value and, when `error` is
  /// non-null, a one-line description with the byte offset.
  static JsonValue parse(const std::string& text, std::string* error = nullptr);

 private:
  friend class JsonParser;
  friend class JsonWriter;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Streaming JSON emitter. Calls append to an internal buffer; the writer
/// inserts commas and validates nesting as it goes (a misuse — e.g. a
/// value where a key is required — marks the document bad rather than
/// emitting garbage). Doubles render with `precision` significant digits
/// (by default enough to round-trip); integral doubles render without an
/// exponent or fraction so the output diffs cleanly. All methods return
/// *this for chaining:
///
///   JsonWriter w;
///   w.begin_object().key("schema").value("armgemm-tune/1")
///    .key("entries").begin_array().end_array().end_object();
///   std::string text = w.str();
class JsonWriter {
 public:
  explicit JsonWriter(int precision = 17) : precision_(precision) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value (or
  /// container). Outside an object this marks the document bad.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s);
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(bool b);
  JsonWriter& null();

  /// Emits a pre-built DOM value in place (arrays/objects recurse).
  JsonWriter& value(const JsonValue& v);

  /// Emits `json`, one complete value rendered elsewhere, in place.
  JsonWriter& raw(const std::string& json);

  /// True once every opened container is closed and at least one value
  /// was written, with no misuse along the way.
  bool complete() const;

  /// The document text. Calling str() on an incomplete or misused
  /// document returns the text produced so far (callers that care check
  /// complete()).
  const std::string& str() const { return out_; }

  /// "..." with JSON escapes applied (quotes included).
  static std::string quoted(const std::string& s);

 private:
  enum class Frame : unsigned char { kObject, kArray };
  void begin_value();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;  // parallel to stack_
  bool expect_key_ = false;      // inside an object, next token must be key()
  bool root_done_ = false;
  bool bad_ = false;
  int precision_;
};

}  // namespace ag
