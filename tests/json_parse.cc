#include "tests/json_parse.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>

namespace linefs::obs {

namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;
  // Defensive bound; the exporters never nest deeper than a handful of levels.
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      return std::nullopt;
    }
    std::string out;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos >= text.size()) {
          return std::nullopt;
        }
        char esc = text[pos++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos + 4 > text.size()) {
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            // Enough for the exporters' ASCII control escapes; multi-byte
            // code points round-trip as UTF-8 without hitting this path.
            out += static_cast<char>(code < 0x80 ? code : '?');
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // Unterminated.
  }

  std::optional<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return std::nullopt;
    }
    SkipWs();
    if (pos >= text.size()) {
      return std::nullopt;
    }
    char c = text[pos];
    if (c == '{') {
      ++pos;
      JsonValue obj = JsonValue::Object();
      SkipWs();
      if (Consume('}')) {
        return obj;
      }
      while (true) {
        SkipWs();
        std::optional<std::string> key = ParseString();
        if (!key.has_value()) {
          return std::nullopt;
        }
        SkipWs();
        if (!Consume(':')) {
          return std::nullopt;
        }
        std::optional<JsonValue> value = ParseValue(depth + 1);
        if (!value.has_value()) {
          return std::nullopt;
        }
        obj.Set(std::move(*key), std::move(*value));
        SkipWs();
        if (Consume(',')) {
          continue;
        }
        if (Consume('}')) {
          return obj;
        }
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      JsonValue arr = JsonValue::Array();
      SkipWs();
      if (Consume(']')) {
        return arr;
      }
      while (true) {
        std::optional<JsonValue> value = ParseValue(depth + 1);
        if (!value.has_value()) {
          return std::nullopt;
        }
        arr.Append(std::move(*value));
        SkipWs();
        if (Consume(',')) {
          continue;
        }
        if (Consume(']')) {
          return arr;
        }
        return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> s = ParseString();
      if (!s.has_value()) {
        return std::nullopt;
      }
      return JsonValue(std::move(*s));
    }
    if (ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    if (ConsumeLiteral("null")) {
      return JsonValue();
    }
    // Number.
    size_t start = pos;
    if (Consume('-')) {
    }
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) {
      return std::nullopt;
    }
    std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return std::nullopt;
    }
    return JsonValue(d);
  }
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text) {
  Parser p{text};
  std::optional<JsonValue> value = p.ParseValue(0);
  if (!value.has_value()) {
    return std::nullopt;
  }
  p.SkipWs();
  if (p.pos != text.size()) {
    return std::nullopt;  // Trailing garbage.
  }
  return value;
}

}  // namespace linefs::obs
