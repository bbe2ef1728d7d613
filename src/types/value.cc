#include "types/value.h"

#include <charconv>
#include <cmath>
#include <functional>

#include "common/string_util.h"

namespace sqopt {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kRef:
      return "ref";
  }
  return "unknown";
}

ValueType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kInt;
    case 3:
      return ValueType::kDouble;
    case 4:
      return ValueType::kString;
    case 5:
      return ValueType::kRef;
  }
  return ValueType::kNull;
}

double Value::AsDouble() const {
  if (type() == ValueType::kInt) return static_cast<double>(int_value());
  return double_value();
}

std::optional<int> Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  if (a == ValueType::kNull || b == ValueType::kNull) return std::nullopt;
  if (is_numeric() && other.is_numeric()) {
    if (a == ValueType::kInt && b == ValueType::kInt) {
      int64_t x = int_value(), y = other.int_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = AsDouble(), y = other.AsDouble();
    if (std::isnan(x) || std::isnan(y)) return std::nullopt;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a != b) return std::nullopt;
  switch (a) {
    case ValueType::kBool: {
      int x = bool_value() ? 1 : 0, y = other.bool_value() ? 1 : 0;
      return x - y;
    }
    case ValueType::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kRef: {
      Oid x = ref_value(), y = other.ref_value();
      if (x == y) return 0;
      return x < y ? -1 : 1;
    }
    default:
      return std::nullopt;
  }
}

namespace {

// Orders types into comparison classes so that int and double interleave.
int TypeClass(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
    case ValueType::kRef:
      return 4;
  }
  return 5;
}

}  // namespace

int Value::Order(const Value& other) const {
  int ca = TypeClass(type()), cb = TypeClass(other.type());
  if (ca != cb) return ca < cb ? -1 : 1;
  // Nulls, NaNs: treated as equal for ordering purposes.
  return Compare(other).value_or(0);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return bool_value() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(int_value());
    case ValueType::kDouble: {
      std::string s = std::to_string(double_value());
      return s;
    }
    case ValueType::kString:
      return "\"" + string_value() + "\"";
    case ValueType::kRef: {
      Oid oid = ref_value();
      return "@" + std::to_string(oid.class_id) + ":" +
             std::to_string(oid.row);
    }
  }
  return "?";
}

Result<Value> Value::Parse(std::string_view text) {
  std::string_view s = StripWhitespace(text);
  if (s.empty()) {
    return Status::ParseError("empty value literal");
  }
  if (s == "null") return Value::Null();
  if (s == "true") return Value::Bool(true);
  if (s == "false") return Value::Bool(false);
  if ((s.front() == '"' && s.back() == '"' && s.size() >= 2) ||
      (s.front() == '\'' && s.back() == '\'' && s.size() >= 2)) {
    return Value::String(std::string(s.substr(1, s.size() - 2)));
  }
  if (LooksLikeInteger(s)) {
    int64_t v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc() && ptr == s.data() + s.size()) {
      return Value::Int(v);
    }
  }
  if (LooksLikeDouble(s)) {
    return Value::Double(std::stod(std::string(s)));
  }
  // Bare word: treat as a string constant (the paper writes string
  // constants unquoted in places, e.g. SFI).
  return Value::String(std::string(s));
}

size_t Value::Hash() const {
  std::hash<std::string> hs;
  std::hash<double> hd;
  std::hash<int64_t> hi;
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b9;
    case ValueType::kBool:
      return bool_value() ? 0x5bd1e995 : 0x27d4eb2f;
    case ValueType::kInt:
      // Hash ints through double when integral-valued so 3 and 3.0 agree.
      return hd(static_cast<double>(int_value()));
    case ValueType::kDouble:
      return hd(double_value());
    case ValueType::kString:
      return hs(string_value());
    case ValueType::kRef: {
      Oid oid = ref_value();
      return hi(oid.row) * 1315423911u + static_cast<size_t>(oid.class_id);
    }
  }
  return 0;
}

}  // namespace sqopt
