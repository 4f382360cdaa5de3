#include "util/minijson.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace esched::minijson {

namespace {

const char* type_name(Value::Type t) {
  switch (t) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kNumber: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
  }
  return "?";
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("minijson: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= s_.size()) {
      throw Error("minijson: unexpected end of input at byte " +
                  std::to_string(pos_));
    }
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(const char* word, Value& out, Value::Type type, bool b) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        fail(std::string("bad literal (want ") + word + ")");
      }
      ++pos_;
    }
    out.type_ = type;
    out.bool_ = b;
  }

  Value parse_value() {
    Value v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.type_ = Value::Type::kString;
        v.string_ = parse_string();
        break;
      case 't': literal("true", v, Value::Type::kBool, true); break;
      case 'f': literal("false", v, Value::Type::kBool, false); break;
      case 'n': literal("null", v, Value::Type::kNull, false); break;
      default: parse_number(v); break;
    }
    return v;
  }

  void parse_object(Value& v) {
    v.type_ = Value::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(Value& v) {
    v.type_ = Value::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // An ASCII code point (what escape() writes for a control byte)
          // decodes to its byte; any other is preserved verbatim (see
          // header).
          const std::size_t digits = pos_;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size()) fail("bad \\u escape");
            const char h = s_[pos_++];
            unsigned v = 0;
            if (h >= '0' && h <= '9') {
              v = static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v = static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v = static_cast<unsigned>(h - 'A' + 10);
            } else {
              --pos_;
              fail("bad \\u escape");
            }
            code = code * 16 + v;
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else {
            out += "\\u";
            out.append(s_, digits, 4);
          }
          break;
        }
        default:
          pos_ -= 1;
          fail("bad escape character");
      }
    }
  }

  void parse_number(Value& v) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("bad value");
    const std::string token = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = start;
      fail("bad number '" + token + "'");
    }
    v.type_ = Value::Type::kNumber;
    v.number_ = value;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) {
    throw Error(std::string("minijson: expected string, have ") +
                type_name(type_));
  }
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::kArray) {
    throw Error(std::string("minijson: expected array, have ") +
                type_name(type_));
  }
  return array_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->type_ == Type::kNumber ? v->number_ : fallback;
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->type_ == Type::kString ? v->string_ : fallback;
}

bool Value::bool_or(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->type_ == Type::kBool ? v->bool_ : fallback;
}

}  // namespace esched::minijson
