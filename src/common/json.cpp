#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace ag {

namespace {
const JsonValue& null_value() {
  static const JsonValue v;
  return v;
}
}  // namespace

const JsonValue& JsonValue::operator[](const std::string& key) const {
  const auto it = obj_.find(key);
  return it == obj_.end() ? null_value() : it->second;
}

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  JsonValue run() {
    JsonValue v = value();
    skip_ws();
    if (!failed_ && pos_ != text_.size()) fail("trailing characters");
    return failed_ ? JsonValue{} : v;
  }

 private:
  void fail(const char* what) {
    if (!failed_ && error_) *error_ = std::string(what) + " at byte " + std::to_string(pos_);
    failed_ = true;
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue value() {
    skip_ws();
    if (failed_ || pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return bool_value();
    if (c == 'n') {
      if (!literal("null")) fail("bad literal");
      return {};
    }
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return v;
    do {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return {};
      }
      std::string key = parse_string();
      if (!consume(':')) {
        fail("expected ':'");
        return {};
      }
      v.obj_[std::move(key)] = value();
      if (failed_) return {};
    } while (consume(','));
    if (!consume('}')) fail("expected '}'");
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return v;
    do {
      v.arr_.push_back(value());
      if (failed_) return {};
    } while (consume(','));
    if (!consume(']')) fail("expected ']'");
    return v;
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    v.str_ = parse_string();
    return v;
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          // Report files never emit \u; decode to '?' rather than fail.
          pos_ = std::min(pos_ + 4, text_.size());
          out.push_back('?');
          break;
        default: fail("bad escape"); return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue bool_value() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    if (literal("true")) {
      v.bool_ = true;
    } else if (literal("false")) {
      v.bool_ = false;
    } else {
      fail("bad literal");
      return {};
    }
    return v;
  }

  JsonValue number() {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) {
      fail("bad number");
      return {};
    }
    pos_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.num_ = d;
    return v;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

JsonValue JsonValue::parse(const std::string& text, std::string* error) {
  return JsonParser(text, error).run();
}

// ---- JsonWriter ----------------------------------------------------------

std::string JsonWriter::quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

// Positions the writer at a value slot: separates from the previous
// sibling and accounts for the container item. A value with a pending
// key requirement, or a second root value, is misuse.
void JsonWriter::begin_value() {
  if (bad_) return;
  if (stack_.empty()) {
    if (root_done_) bad_ = true;
    return;
  }
  if (stack_.back() == Frame::kObject) {
    if (expect_key_) {  // value without a preceding key()
      bad_ = true;
      return;
    }
    expect_key_ = true;  // next object token must be a key again
    return;              // key() already emitted the separator and ':'
  }
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (bad_) return *this;
  if (stack_.empty() || stack_.back() != Frame::kObject || !expect_key_) {
    bad_ = true;
    return *this;
  }
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  out_ += quoted(name);
  out_.push_back(':');
  expect_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  if (bad_) return *this;
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
  expect_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (bad_ || stack_.empty() || stack_.back() != Frame::kObject || !expect_key_) {
    bad_ = true;
    return *this;
  }
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
  expect_key_ = !stack_.empty() && stack_.back() == Frame::kObject;
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  if (bad_) return *this;
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
  expect_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (bad_ || stack_.empty() || stack_.back() != Frame::kArray) {
    bad_ = true;
    return *this;
  }
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
  expect_key_ = !stack_.empty() && stack_.back() == Frame::kObject;
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& s) {
  begin_value();
  if (!bad_) {
    out_ += quoted(s);
    if (stack_.empty()) root_done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::value(const char* s) { return value(std::string(s)); }

JsonWriter& JsonWriter::value(double d) {
  begin_value();
  if (bad_) return *this;
  char buf[40];
  // NaN/Inf have no JSON spelling; null is the conventional stand-in.
  if (d != d || d > 1.7976931348623157e308 || d < -1.7976931348623157e308) {
    out_ += "null";
  } else if (d == static_cast<double>(static_cast<std::int64_t>(d)) &&
             d >= -9.0e15 && d <= 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(d)));
    out_ += buf;
  } else {
    std::snprintf(buf, sizeof buf, "%.*g", precision_, d);
    out_ += buf;
  }
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  begin_value();
  if (!bad_) {
    out_ += std::to_string(i);
    if (stack_.empty()) root_done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  begin_value();
  if (!bad_) {
    out_ += std::to_string(u);
    if (stack_.empty()) root_done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  begin_value();
  if (!bad_) {
    out_ += b ? "true" : "false";
    if (stack_.empty()) root_done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::null() {
  begin_value();
  if (!bad_) {
    out_ += "null";
    if (stack_.empty()) root_done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::value(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return null();
    case JsonValue::Kind::kBool: return value(v.as_bool());
    case JsonValue::Kind::kNumber: return value(v.as_number());
    case JsonValue::Kind::kString: return value(v.as_string());
    case JsonValue::Kind::kArray: {
      begin_array();
      for (const JsonValue& item : v.items()) value(item);
      return end_array();
    }
    case JsonValue::Kind::kObject: {
      begin_object();
      for (const auto& [k, item] : v.obj_) {
        key(k);
        value(item);
      }
      return end_object();
    }
  }
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  begin_value();
  if (!bad_) {
    out_ += json;
    if (stack_.empty()) root_done_ = true;
  }
  return *this;
}

bool JsonWriter::complete() const { return !bad_ && root_done_ && stack_.empty(); }

}  // namespace ag
