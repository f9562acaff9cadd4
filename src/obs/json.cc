#include "src/obs/json.h"

#include <cmath>
#include <cstdio>

namespace linefs::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

JsonValue& JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

namespace {

void AppendNumber(std::string* out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    *out += "null";  // JSON has no NaN/Inf; emit null rather than garbage.
    return;
  }
  double rounded = std::nearbyint(d);
  char buf[32];
  if (rounded == d && std::fabs(d) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(rounded));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  *out += buf;
}

void Newline(std::string* out, int indent, int depth) {
  if (indent > 0) {
    *out += '\n';
    out->append(static_cast<size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      AppendNumber(out, number_);
      break;
    case Kind::kString:
      *out += '"';
      *out += JsonEscape(string_);
      *out += '"';
      break;
    case Kind::kArray: {
      *out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) {
          *out += ',';
        }
        Newline(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      if (!items_.empty()) {
        Newline(out, indent, depth);
      }
      *out += ']';
      break;
    }
    case Kind::kObject: {
      *out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) {
          *out += ',';
        }
        Newline(out, indent, depth + 1);
        *out += '"';
        *out += JsonEscape(members_[i].first);
        *out += "\":";
        if (indent > 0) {
          *out += ' ';
        }
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!members_.empty()) {
        Newline(out, indent, depth);
      }
      *out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

}  // namespace linefs::obs
