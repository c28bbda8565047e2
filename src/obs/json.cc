#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace s2s::obs::json {

namespace {

/// Appends `s` to `out`, escaped for a JSON string literal.
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_ += ',';
    has_item_.back() = true;
  }
}

Writer& Writer::begin_object() {
  separate();
  out_ += '{';
  has_item_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  has_item_.pop_back();
  out_ += '}';
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  out_ += '[';
  has_item_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  has_item_.pop_back();
  out_ += ']';
  return *this;
}

Writer& Writer::key(std::string_view name) {
  separate();
  out_ += '"';
  append_escaped(out_, name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

Writer& Writer::value(double v) {
  separate();
  if (!std::isfinite(v)) {  // JSON has no inf/nan; clamp to null
    out_ += "null";
    return *this;
  }
  // The lowest %g precision that round-trips. std::to_chars writes the
  // shortest digit string that round-trips, so no lower precision can
  // and the search starts at its digit count, usually ending at once.
  // to_chars with a precision formats as printf's %.*g does.
  char buf[40];
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific)
          .ptr;
  int digits = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  // 17 significant digits always round-trip.
  for (int prec = digits;; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v || prec >= 17) break;
  }
  out_.append(buf, end);
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

Writer& Writer::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

Writer& Writer::null() {
  separate();
  out_ += "null";
  return *this;
}

const Value* Value::find(std::string_view name) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(std::string(name));
  return it == object.end() ? nullptr : &it->second;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof() && (text[pos] == ' ' || text[pos] == '\t' ||
                      text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (eof() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool consume_word(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (pos + 4 > text.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    pos += 4;
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (!eof()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return false;
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(cp)) return false;
            append_utf8(out, cp);  // BMP only; surrogates pass through raw
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool parse_value(Value& out, int depth) {
    if (depth > 64) return false;
    skip_ws();
    if (eof()) return false;
    const char c = peek();
    if (c == '{') {
      ++pos;
      out.kind = Value::Kind::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        Value member;
        if (!parse_value(member, depth + 1)) return false;
        out.object.emplace(std::move(key), std::move(member));
        skip_ws();
        if (consume(',')) continue;
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out.kind = Value::Kind::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Value item;
        if (!parse_value(item, depth + 1)) return false;
        out.array.push_back(std::move(item));
        skip_ws();
        if (consume(',')) continue;
        return consume(']');
      }
    }
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return parse_string(out.string);
    }
    if (consume_word("true")) {
      out.kind = Value::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (consume_word("false")) {
      out.kind = Value::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (consume_word("null")) {
      out.kind = Value::Kind::kNull;
      return true;
    }
    // Number: copy the candidate span into a NUL-terminated buffer first
    // (the view is not guaranteed NUL-terminated), then let strtod judge.
    char buf[64];
    std::size_t n = 0;
    while (pos + n < text.size() && n + 1 < sizeof(buf)) {
      const char d = text[pos + n];
      if (!((d >= '0' && d <= '9') || d == '-' || d == '+' || d == '.' ||
            d == 'e' || d == 'E')) {
        break;
      }
      buf[n++] = d;
    }
    buf[n] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end == buf || !std::isfinite(v)) return false;
    pos += static_cast<std::size_t>(end - buf);
    out.kind = Value::Kind::kNumber;
    out.number = v;
    return true;
  }
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Parser p{text};
  Value root;
  if (!p.parse_value(root, 0)) return std::nullopt;
  p.skip_ws();
  if (!p.eof()) return std::nullopt;
  return root;
}

}  // namespace s2s::obs::json
