// Logical implication between predicates. Used by (a) the transitive
// closure precompilation (chaining c1's consequent into c2's antecedent
// requires consequent ⊨ antecedent) and (b) the optimizer's implied
// antecedent matching mode, where a query predicate stronger than a
// constraint antecedent still satisfies it (x > 30 satisfies x > 10).
#ifndef SQOPT_EXPR_IMPLICATION_H_
#define SQOPT_EXPR_IMPLICATION_H_

#include <vector>

#include "expr/predicate.h"

namespace sqopt {

// True iff every tuple satisfying `a` also satisfies `b`.
// Decides exactly for:
//   * identical predicates;
//   * attr-const pairs on the same attribute with comparable constants;
//   * attr-attr pairs on the same attribute pair.
// Returns false (conservative) in all other cases.
bool Implies(const Predicate& a, const Predicate& b);

// True iff the conjunction of `premises` implies `conclusion`, using
// only single-premise reasoning plus interval narrowing on the
// conclusion's attribute. Conservative.
bool ConjunctionImplies(const std::vector<Predicate>& premises,
                        const Predicate& conclusion);

}  // namespace sqopt

#endif  // SQOPT_EXPR_IMPLICATION_H_
