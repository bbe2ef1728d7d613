// Semantic integrity constraints in Horn-clause form (Section 2):
//
//   p_1 ∧ p_2 ∧ ... ∧ p_k  ->  q
//
// where every p_i and q is a Predicate. Constraints are classified as
// intra-class (all predicates reference one object class) or inter-class
// (more than one); the classification drives the tag tables (3.1, 3.2).
#ifndef SQOPT_CONSTRAINTS_HORN_CLAUSE_H_
#define SQOPT_CONSTRAINTS_HORN_CLAUSE_H_

#include <string>
#include <vector>

#include "expr/predicate.h"

namespace sqopt {

using ConstraintId = int32_t;
inline constexpr ConstraintId kInvalidConstraint = -1;

enum class ConstraintClass {
  kIntra,  // references attributes of exactly one object class
  kInter,  // references attributes of two or more object classes
};

const char* ConstraintClassName(ConstraintClass c);

class HornClause {
 public:
  HornClause() = default;
  HornClause(std::string label, std::vector<Predicate> antecedents,
             Predicate consequent)
      : label_(std::move(label)),
        antecedents_(std::move(antecedents)),
        consequent_(std::move(consequent)) {}

  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  const std::vector<Predicate>& antecedents() const { return antecedents_; }
  const Predicate& consequent() const { return consequent_; }

  // All object classes referenced by any predicate, sorted + deduped.
  std::vector<ClassId> ReferencedClasses() const;

  // Paper §3.2: intra iff exactly one referenced class.
  ConstraintClass Classify() const;

  // True if `preds` implies every antecedent, so the clause fires and
  // its consequent holds.
  bool FiresOn(const std::vector<Predicate>& preds) const;

  // Derivation provenance: ids of the two constraints this clause was
  // chained from during closure computation, or empty for base clauses.
  const std::vector<ConstraintId>& derived_from() const {
    return derived_from_;
  }
  void set_derived_from(std::vector<ConstraintId> src) {
    derived_from_ = std::move(src);
  }
  bool is_derived() const { return !derived_from_.empty(); }

  // Structural identity (label excluded): same antecedent *set* and the
  // same consequent. Used to deduplicate closure output.
  bool StructurallyEquals(const HornClause& other) const;
  size_t StructuralHash() const;

  std::string ToString(const Schema& schema) const;

 private:
  std::string label_;
  std::vector<Predicate> antecedents_;
  Predicate consequent_;
  std::vector<ConstraintId> derived_from_;
};

}  // namespace sqopt

#endif  // SQOPT_CONSTRAINTS_HORN_CLAUSE_H_
