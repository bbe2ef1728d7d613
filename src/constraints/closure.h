// Transitive closure of a Horn-clause constraint set, materialized at
// precompilation (Section 3). The chaining rule, following Yu & Sun
// [YuS89] and the paper's own example
//   (A = a) -> (B > 20),  (B > 10) -> (C = c)   ⟹   (A = a) -> (C = c),
// is: if c1's consequent logically implies an antecedent r of c2, derive
//   antecedents(c1) ∪ (antecedents(c2) \ {r})  ->  consequent(c2).
// Materializing the closure is what makes the simple class-subset
// relevance test complete, so the optimizer never needs to chain at
// query time.
#ifndef SQOPT_CONSTRAINTS_CLOSURE_H_
#define SQOPT_CONSTRAINTS_CLOSURE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "constraints/horn_clause.h"

namespace sqopt {

struct ClosureOptions {
  // Hard cap on the number of derived clauses; guards against
  // pathological constraint sets. 0 = default (4096).
  size_t max_derived = 4096;
  // Maximum antecedent count of a derived clause; longer derivations are
  // discarded (they are rarely relevant to any query and bloat groups).
  size_t max_antecedents = 8;
  // Drop derived clauses whose antecedent set is unsatisfiable or whose
  // consequent is already implied by the antecedents (vacuous).
  bool prune_trivial = true;
};

struct ClosureResult {
  // Base clauses first (same order as input), derived clauses appended.
  std::vector<HornClause> clauses;
  size_t num_base = 0;
  size_t num_derived = 0;
  int rounds = 0;  // fixpoint iterations performed
};

// Computes the closure. Input clauses keep their labels; derived clauses
// get labels "<l1>*<l2>" and provenance ids (indices into the output).
Result<ClosureResult> ComputeClosure(const Schema& schema,
                                     std::vector<HornClause> base,
                                     const ClosureOptions& options = {});

}  // namespace sqopt

#endif  // SQOPT_CONSTRAINTS_CLOSURE_H_
