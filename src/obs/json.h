// Minimal JSON document model used by the observability exporters (Chrome
// trace files, BENCH_*.json reports). No external dependency: the build uses
// no JSON library. Tests parse the emitted files with tests/json_parse.h.
//
// Objects keep insertion order so emitted reports are stable and diffable.

#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace linefs::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                 // NOLINT
  JsonValue(double d) : kind_(Kind::kNumber), number_(d) {}           // NOLINT
  JsonValue(int64_t i)                                                // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(uint64_t u)                                               // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(u)) {}
  JsonValue(int i) : kind_(Kind::kNumber), number_(i) {}              // NOLINT
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}      // NOLINT

  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }

  // Object access. Set() replaces an existing key in place.
  JsonValue& Set(std::string key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  // Array access.
  JsonValue& Append(JsonValue value);
  size_t size() const { return kind_ == Kind::kArray ? items_.size() : members_.size(); }
  const std::vector<JsonValue>& items() const { return items_; }

  // Serialises the document. indent > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// JSON string escaping for ad-hoc emitters.
std::string JsonEscape(std::string_view s);

}  // namespace linefs::obs

#endif  // SRC_OBS_JSON_H_
