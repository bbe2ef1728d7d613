// Typed runtime values: attribute values stored in objects, constants in
// predicates, and key values in indexes all use `Value`.
#ifndef SQOPT_TYPES_VALUE_H_
#define SQOPT_TYPES_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/status.h"

namespace sqopt {

enum class ValueType {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kRef,  // object reference (oid into another class's extent)
};

const char* ValueTypeName(ValueType type);

// Opaque object identifier: (class ordinal, row ordinal). Used by `kRef`
// values that implement the pointer attributes of Figure 2.1.
struct Oid {
  int32_t class_id = -1;
  int64_t row = -1;

  bool valid() const { return class_id >= 0 && row >= 0; }
  bool operator==(const Oid& other) const = default;
  auto operator<=>(const Oid& other) const = default;
};

// A dynamically typed value. Small, copyable, and totally ordered within
// comparable types. Numeric types (int/double) compare across each other.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }
  static Value Ref(Oid oid) { return Value(Rep(oid)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    ValueType t = type();
    return t == ValueType::kInt || t == ValueType::kDouble;
  }

  // Accessors assert on type mismatch (programming error).
  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const {
    return std::get<std::string>(rep_);
  }
  Oid ref_value() const { return std::get<Oid>(rep_); }

  // Numeric value as double regardless of int/double representation.
  // Requires is_numeric().
  double AsDouble() const;

  // Three-way comparison. Returns nullopt when the values are not
  // comparable (different non-numeric types, or either side null) —
  // predicate evaluation treats incomparable as "unknown" = false.
  std::optional<int> Compare(const Value& other) const;

  // Strict equality of type and content (nulls equal nulls). This is the
  // identity used by hashing/containers, NOT SQL ternary logic.
  bool operator==(const Value& other) const { return rep_ == other.rep_; }

  // Total order for use as container keys: orders first by type class,
  // then by value. Numerics order together.
  bool operator<(const Value& other) const { return Order(other) < 0; }

  // The same order as a three-way result: -1, 0 (equivalent) or 1.
  int Order(const Value& other) const;

  std::string ToString() const;

  // Parses "null", "true"/"false", integer, double, or a single-quoted /
  // double-quoted string literal. Bare words parse as strings.
  static Result<Value> Parse(std::string_view text);

  size_t Hash() const;

 private:
  using Rep =
      std::variant<std::monostate, bool, int64_t, double, std::string, Oid>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace sqopt

#endif  // SQOPT_TYPES_VALUE_H_
