// Predicates: the atoms the semantic optimizer classifies and rewrites.
// A predicate compares an attribute against either a constant (selective
// predicate, e.g. vehicle.desc = "refrigerated truck") or another
// attribute (join/comparison predicate, e.g. driver.licenseClass >=
// vehicle.class). Predicates are value types with canonical form, total
// identity, and hashing, because the transformation table keys on them.
#ifndef SQOPT_EXPR_PREDICATE_H_
#define SQOPT_EXPR_PREDICATE_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "types/value.h"

namespace sqopt {

enum class CompareOp {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

// "=", "!=", "<", "<=", ">", ">=".
const char* CompareOpSymbol(CompareOp op);
Result<CompareOp> ParseCompareOp(std::string_view symbol);

// The mirrored operator: a op b  <=>  b op' a.
CompareOp FlipCompareOp(CompareOp op);
// The logical negation: !(a op b) <=> a op' b.
CompareOp NegateCompareOp(CompareOp op);

// Evaluates `lhs op rhs`. Incomparable values (nulls, type mismatch)
// evaluate to false for every op, including !=, mirroring SQL's
// unknown-is-not-true semantics.
bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs);

class Predicate {
 public:
  Predicate() = default;

  // attr op constant.
  static Predicate AttrConst(AttrRef attr, CompareOp op, Value constant);
  // attr op attr. Canonicalized so the smaller AttrRef is on the left.
  static Predicate AttrAttr(AttrRef lhs, CompareOp op, AttrRef rhs);

  bool is_attr_const() const { return !rhs_is_attr_; }
  bool is_attr_attr() const { return rhs_is_attr_; }

  const AttrRef& lhs() const { return lhs_; }
  CompareOp op() const { return op_; }
  const AttrRef& rhs_attr() const { return rhs_attr_; }
  const Value& rhs_value() const { return rhs_value_; }

  // The object classes this predicate references (1 for attr-const or
  // same-class attr-attr, 2 otherwise). Sorted, deduplicated.
  std::vector<ClassId> ReferencedClasses() const;
  bool ReferencesClass(ClassId id) const {
    return lhs_.class_id == id || (rhs_is_attr_ && rhs_attr_.class_id == id);
  }

  bool operator==(const Predicate& other) const;
  size_t Hash() const;

  // Rendering requires the schema for attribute names.
  std::string ToString(const Schema& schema) const;

 private:
  AttrRef lhs_;
  CompareOp op_ = CompareOp::kEq;
  bool rhs_is_attr_ = false;
  AttrRef rhs_attr_;
  Value rhs_value_;
};

struct PredicateHash {
  size_t operator()(const Predicate& p) const { return p.Hash(); }
};

// Parses "class.attr op literal" or "class.attr op class.attr".
// Accepted ops: = == != <> < <= > >=.
Result<Predicate> ParsePredicate(const Schema& schema,
                                 std::string_view text);

}  // namespace sqopt

#endif  // SQOPT_EXPR_PREDICATE_H_
