// Automatic derivation of state-dependent semantic rules from the
// current database contents, after Siegel [Sie88] and Yu & Sun [YuS89]
// (both discussed in the paper's §1; §2 notes such rules "can easily be
// accommodated" by the optimizer). A derived rule holds in the CURRENT
// database state — it must be discarded or re-derived after updates,
// unlike the integrity constraints which hold in every state.
//
// Rule families mined:
//  * value rules:        A = a  ->  B = b      (per-group functional)
//  * range rules:        (empty) -> B >= min, B <= max   (global bounds)
//  * conditional ranges: A = a  ->  B <= max(B | A = a)  (group bounds,
//    emitted only when strictly tighter than the global bound)
#ifndef SQOPT_CONSTRAINTS_RULE_DERIVATION_H_
#define SQOPT_CONSTRAINTS_RULE_DERIVATION_H_

#include <vector>

#include "common/status.h"
#include "constraints/horn_clause.h"
#include "storage/object_store.h"

namespace sqopt {

// Groups smaller than this are noise, not knowledge; so are classes
// with fewer live rows.
inline constexpr int64_t kMinRuleSupport = 8;
// Antecedent attributes with more distinct values than this are
// skipped (a rule per customer id is useless).
inline constexpr int64_t kMaxAntecedentValues = 8;

// Mines rules from `store`. Every returned clause is guaranteed to hold
// on the store's current contents (and is labeled "state:..."). The
// caller decides whether to add them to a ConstraintCatalog; remember
// to re-derive after updates.
Result<std::vector<HornClause>> DeriveStateRules(const ObjectStore& store);

// Verifies that `clause` holds on every object (intra-class clauses) or
// every same-class-pair combination implied by its classes (checked
// per class for attr-const predicates). Used by tests and by callers
// that re-validate state rules after updates. Conservative: returns
// false only on a definite violation.
bool RuleHoldsOnStore(const ObjectStore& store, const HornClause& clause);

}  // namespace sqopt

#endif  // SQOPT_CONSTRAINTS_RULE_DERIVATION_H_
