// A minimal JSON value parser (RFC 8259 subset: a \uXXXX escape of an
// ASCII code point decodes to its byte, any other is preserved verbatim)
// for the handful of places that *read* JSON this codebase itself
// emitted: esched-top parsing a coordinator's /healthz and /sweeps
// answers, and tests asserting on endpoint content. This is deliberately
// not a general JSON library — no DOM mutation, no serialization — just
// a tree of values with typed accessors that throw esched::Error (naming
// the offending key or byte offset) instead of silently defaulting.
//
// Its one writer is escape(), the string escaping every JSON emitter of
// the codebase shares (metrics export, tracer, flight recorder, ops
// endpoints), so what they write is what this parser reads back.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace esched::minijson {

/// The body of a JSON string holding `s` (no surrounding quotes): `"`,
/// `\` and every control byte are escaped (`\n`, `\r`, `\t`, else
/// `\u00XX`); all other bytes, UTF-8 included, pass through.
/// Value::parse of the quoted result gives back `s`.
std::string escape(std::string_view s);

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document (surrounding whitespace allowed).
  /// Throws esched::Error with the byte offset of the first violation.
  static Value parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors; throw esched::Error on a type mismatch.
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;

  /// Object member lookup; null when absent or when this is not an
  /// object (so chained lookups degrade to "absent", not a throw).
  const Value* find(const std::string& key) const;

  /// Convenience: object member with a fallback for absent or
  /// wrong-typed members. Consumers (esched-top reading a daemon's
  /// /healthz) should degrade to a placeholder, not crash, when the
  /// server's schema drifts ahead of them; use find()+as_*() when a
  /// mismatch IS worth a throw.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;

  friend class Parser;
};

}  // namespace esched::minijson
