// Minimal JSON value formatting and parsing shared by the obs exporters.
//
// Doubles are rendered with std::to_chars shortest round-trip form: the
// bytes are a pure function of the bit pattern, so any value that is
// bit-deterministic across `jobs` serializes to identical text — the
// property the trace/metrics determinism suite diffs on. Non-finite
// doubles have no JSON literal and are rendered as `null` (the convention
// Chrome's trace viewer and most strict parsers accept).
//
// MiniJson is the inverse direction: a small recursive-descent parser for
// the documents this repo emits (metrics/manifest/span files), used by
// `oaqctl report` and the round-trip tests. It
// preserves object key order, which the exporters keep deterministic.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oaq {

/// Writes a double as its shortest round-trip decimal form; non-finite
/// values (NaN, ±inf) become `null`.
inline void write_json_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  os << std::string_view(buf, static_cast<std::size_t>(end - buf));
}

/// Writes a quoted JSON string, escaping quotes, backslashes, and control
/// characters (named escapes where JSON has them, \u00XX otherwise).
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Parsed JSON value. Objects keep their key order (the exporters write
/// deterministically ordered keys; round-trips must not reshuffle them).
class MiniJson {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<MiniJson> array;
  std::vector<std::pair<std::string, MiniJson>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; null when absent or not an object.
  [[nodiscard]] const MiniJson* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// garbage rejected). Returns nullopt on any syntax error.
  [[nodiscard]] static std::optional<MiniJson> parse(std::string_view in) {
    std::size_t pos = 0;
    auto value = parse_value(in, pos);
    if (!value) return std::nullopt;
    skip_ws(in, pos);
    if (pos != in.size()) return std::nullopt;
    return value;
  }

 private:
  static void skip_ws(std::string_view in, std::size_t& pos) {
    while (pos < in.size() &&
           (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
            in[pos] == '\r')) {
      ++pos;
    }
  }

  static bool consume(std::string_view in, std::size_t& pos,
                      std::string_view word) {
    if (in.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  static std::optional<std::string> parse_string(std::string_view in,
                                                 std::size_t& pos) {
    if (pos >= in.size() || in[pos] != '"') return std::nullopt;
    ++pos;
    std::string out;
    while (pos < in.size()) {
      const char c = in[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (c == '\\') {
        if (pos + 1 >= in.size()) return std::nullopt;
        const char esc = in[pos + 1];
        pos += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > in.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = in[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += 10u + static_cast<unsigned>(h - 'a');
              else if (h >= 'A' && h <= 'F') code += 10u + static_cast<unsigned>(h - 'A');
              else return std::nullopt;
            }
            pos += 4;
            // The exporters only emit \u00XX control escapes; decode the
            // BMP point as UTF-8 so round-trips are lossless.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return std::nullopt;
        }
        continue;
      }
      out += c;
      ++pos;
    }
    return std::nullopt;  // unterminated
  }

  static std::optional<MiniJson> parse_value(std::string_view in,
                                             std::size_t& pos) {
    skip_ws(in, pos);
    if (pos >= in.size()) return std::nullopt;
    MiniJson v;
    const char c = in[pos];
    if (c == 'n') {
      if (!consume(in, pos, "null")) return std::nullopt;
      v.kind = Kind::kNull;
      return v;
    }
    if (c == 't' || c == 'f') {
      v.kind = Kind::kBool;
      v.boolean = c == 't';
      if (!consume(in, pos, v.boolean ? "true" : "false")) return std::nullopt;
      return v;
    }
    if (c == '"') {
      auto s = parse_string(in, pos);
      if (!s) return std::nullopt;
      v.kind = Kind::kString;
      v.text = std::move(*s);
      return v;
    }
    if (c == '[') {
      ++pos;
      v.kind = Kind::kArray;
      skip_ws(in, pos);
      if (pos < in.size() && in[pos] == ']') {
        ++pos;
        return v;
      }
      while (true) {
        auto item = parse_value(in, pos);
        if (!item) return std::nullopt;
        v.array.push_back(std::move(*item));
        skip_ws(in, pos);
        if (pos >= in.size()) return std::nullopt;
        if (in[pos] == ',') {
          ++pos;
          continue;
        }
        if (in[pos] == ']') {
          ++pos;
          return v;
        }
        return std::nullopt;
      }
    }
    if (c == '{') {
      ++pos;
      v.kind = Kind::kObject;
      skip_ws(in, pos);
      if (pos < in.size() && in[pos] == '}') {
        ++pos;
        return v;
      }
      while (true) {
        skip_ws(in, pos);
        auto key = parse_string(in, pos);
        if (!key) return std::nullopt;
        skip_ws(in, pos);
        if (pos >= in.size() || in[pos] != ':') return std::nullopt;
        ++pos;
        auto item = parse_value(in, pos);
        if (!item) return std::nullopt;
        v.object.emplace_back(std::move(*key), std::move(*item));
        skip_ws(in, pos);
        if (pos >= in.size()) return std::nullopt;
        if (in[pos] == ',') {
          ++pos;
          continue;
        }
        if (in[pos] == '}') {
          ++pos;
          return v;
        }
        return std::nullopt;
      }
    }
    // Number (JSON syntax is a subset of what from_chars accepts; the
    // leading characters bound the token).
    const std::size_t start = pos;
    if (in[pos] == '-') ++pos;
    while (pos < in.size() &&
           (std::isdigit(static_cast<unsigned char>(in[pos])) != 0 ||
            in[pos] == '.' || in[pos] == 'e' || in[pos] == 'E' ||
            in[pos] == '+' || in[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    double num = 0.0;
    const auto [end, ec] =
        std::from_chars(in.data() + start, in.data() + pos, num);
    if (ec != std::errc{} || end != in.data() + pos) return std::nullopt;
    v.kind = Kind::kNumber;
    v.number = num;
    return v;
  }
};

}  // namespace oaq
