#include "expr/implication.h"

#include "expr/interval.h"

namespace sqopt {

namespace {

// Implication between `x opA c` and `x opB d` over a densely ordered
// domain, given cmp = Compare(c, d) in {-1, 0, 1}.
bool AttrConstImplies(CompareOp op_a, CompareOp op_b, int cmp) {
  switch (op_b) {
    case CompareOp::kEq:
      return op_a == CompareOp::kEq && cmp == 0;
    case CompareOp::kNe:
      switch (op_a) {
        case CompareOp::kEq:
          return cmp != 0;
        case CompareOp::kNe:
          return cmp == 0;
        case CompareOp::kLt:
          return cmp <= 0;  // x < c and d >= c  ->  x != d
        case CompareOp::kLe:
          return cmp < 0;  // x <= c and d > c  ->  x != d
        case CompareOp::kGt:
          return cmp >= 0;
        case CompareOp::kGe:
          return cmp > 0;
      }
      return false;
    case CompareOp::kLt:
      switch (op_a) {
        case CompareOp::kEq:
          return cmp < 0;
        case CompareOp::kLt:
          return cmp <= 0;
        case CompareOp::kLe:
          return cmp < 0;
        default:
          return false;
      }
    case CompareOp::kLe:
      switch (op_a) {
        case CompareOp::kEq:
        case CompareOp::kLt:
        case CompareOp::kLe:
          return cmp <= 0;
        default:
          return false;
      }
    case CompareOp::kGt:
      switch (op_a) {
        case CompareOp::kEq:
          return cmp > 0;
        case CompareOp::kGt:
          return cmp >= 0;
        case CompareOp::kGe:
          return cmp > 0;
        default:
          return false;
      }
    case CompareOp::kGe:
      switch (op_a) {
        case CompareOp::kEq:
        case CompareOp::kGt:
        case CompareOp::kGe:
          return cmp >= 0;
        default:
          return false;
      }
  }
  return false;
}

// Implication between two attr-attr predicates over the same canonical
// attribute pair: does `x opA y` imply `x opB y`?
bool AttrAttrImplies(CompareOp op_a, CompareOp op_b) {
  if (op_a == op_b) return true;
  switch (op_a) {
    case CompareOp::kEq:
      return op_b == CompareOp::kLe || op_b == CompareOp::kGe;
    case CompareOp::kLt:
      return op_b == CompareOp::kLe || op_b == CompareOp::kNe;
    case CompareOp::kGt:
      return op_b == CompareOp::kGe || op_b == CompareOp::kNe;
    default:
      return false;
  }
}

}  // namespace

bool Implies(const Predicate& a, const Predicate& b) {
  if (a == b) return true;
  if (a.is_attr_const() && b.is_attr_const()) {
    if (a.lhs() != b.lhs()) return false;
    std::optional<int> cmp = a.rhs_value().Compare(b.rhs_value());
    if (!cmp.has_value()) return false;
    return AttrConstImplies(a.op(), b.op(), *cmp);
  }
  if (a.is_attr_attr() && b.is_attr_attr()) {
    // Both are canonicalized (smaller AttrRef left), so equal pairs line
    // up directly.
    if (a.lhs() != b.lhs() || a.rhs_attr() != b.rhs_attr()) return false;
    return AttrAttrImplies(a.op(), b.op());
  }
  return false;
}

bool ConjunctionImplies(const std::vector<Predicate>& premises,
                        const Predicate& conclusion) {
  for (const Predicate& p : premises) {
    if (Implies(p, conclusion)) return true;
  }
  if (!conclusion.is_attr_const()) return false;
  // Interval refutation: premises ∧ ¬conclusion unsatisfiable ⇒ implied.
  Interval region;
  bool narrowed = false;
  for (const Predicate& p : premises) {
    if (p.is_attr_const() && p.lhs() == conclusion.lhs()) {
      narrowed = true;
      if (!region.Add(p.op(), p.rhs_value())) return true;  // premises unsat
    }
  }
  if (!narrowed) return false;
  return !region.Add(NegateCompareOp(conclusion.op()),
                     conclusion.rhs_value());
}

}  // namespace sqopt
