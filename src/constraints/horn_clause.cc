#include "constraints/horn_clause.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "expr/implication.h"

namespace sqopt {

const char* ConstraintClassName(ConstraintClass c) {
  return c == ConstraintClass::kIntra ? "intra" : "inter";
}

std::vector<ClassId> HornClause::ReferencedClasses() const {
  std::set<ClassId> classes;
  for (const Predicate& p : antecedents_) {
    for (ClassId id : p.ReferencedClasses()) classes.insert(id);
  }
  for (ClassId id : consequent_.ReferencedClasses()) classes.insert(id);
  return std::vector<ClassId>(classes.begin(), classes.end());
}

ConstraintClass HornClause::Classify() const {
  return ReferencedClasses().size() <= 1 ? ConstraintClass::kIntra
                                         : ConstraintClass::kInter;
}

bool HornClause::FiresOn(const std::vector<Predicate>& preds) const {
  return std::all_of(
      antecedents_.begin(), antecedents_.end(),
      [&](const Predicate& a) { return ConjunctionImplies(preds, a); });
}

bool HornClause::StructurallyEquals(const HornClause& other) const {
  if (!(consequent_ == other.consequent_)) return false;
  if (antecedents_.size() != other.antecedents_.size()) return false;
  // Set comparison: every antecedent of ours appears in theirs. Sizes
  // match and our antecedents are deduplicated by the parser/closure.
  for (const Predicate& p : antecedents_) {
    bool found = false;
    for (const Predicate& q : other.antecedents_) {
      if (p == q) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

size_t HornClause::StructuralHash() const {
  // Order-insensitive combination over antecedents.
  size_t h = consequent_.Hash() * 1000003u;
  for (const Predicate& p : antecedents_) {
    h ^= p.Hash() * 2654435761u;  // xor keeps it order-insensitive
  }
  return h;
}

std::string HornClause::ToString(const Schema& schema) const {
  std::ostringstream os;
  if (!label_.empty()) os << label_ << ": ";
  for (size_t i = 0; i < antecedents_.size(); ++i) {
    if (i) os << ", ";
    os << antecedents_[i].ToString(schema);
  }
  os << " -> " << consequent_.ToString(schema);
  return os.str();
}

}  // namespace sqopt
