#include "sqo/formulation.h"

#include "expr/implication.h"
#include "expr/interval.h"

namespace sqopt {

namespace {

// Entailment oracle: saturates `preds` by firing every relevant clause
// whose antecedents are implied by the accumulated set, then answers
// implication queries against the saturated set.
class EntailmentOracle {
 public:
  EntailmentOracle(const ConstraintCatalog& catalog,
                   const std::vector<ConstraintId>& relevant)
      : catalog_(catalog), relevant_(relevant) {}

  // Returns the saturated predicate set for `preds`.
  std::vector<Predicate> Saturate(std::vector<Predicate> preds) const {
    std::vector<bool> fired(relevant_.size(), false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < relevant_.size(); ++i) {
        if (fired[i]) continue;
        const HornClause& clause = catalog_.clause(relevant_[i]);
        if (!clause.FiresOn(preds)) continue;
        fired[i] = true;
        preds.push_back(clause.consequent());
        changed = true;
      }
    }
    return preds;
  }

  // True if `target` is entailed by `saturated` (a Saturate() result).
  static bool Entails(const std::vector<Predicate>& saturated,
                      const Predicate& target) {
    return ConjunctionImplies(saturated, target);
  }

 private:
  const ConstraintCatalog& catalog_;
  const std::vector<ConstraintId>& relevant_;
};

}  // namespace

FormulationResult FormulateQuery(const Schema& schema,
                                 const Query& original,
                                 const TransformationTable& table,
                                 const ConstraintCatalog& catalog,
                                 const std::vector<ConstraintId>& relevant,
                                 const CostModelInterface* cost_model,
                                 const OptimizerOptions& options) {
  FormulationResult result;
  EntailmentOracle oracle(catalog, relevant);

  // 1. Final tag per pool predicate. A predicate participates in the
  // final query iff it was in the original query or was introduced
  // (its column acquired a tag cell).
  struct Tagged {
    PredId col;
    PredicateTag tag;
    bool in_query;
  };
  std::vector<Tagged> tagged;
  for (PredId col = 0; col < static_cast<PredId>(table.num_cols()); ++col) {
    bool in_query = table.InQuery(col);
    bool has_tag = table.HasTagCell(col);
    if (!in_query && !has_tag) continue;  // never materialized
    PredicateTag tag =
        has_tag ? table.FinalTag(col) : PredicateTag::kImperative;
    tagged.push_back(Tagged{col, tag, in_query});
  }

  // 2. Contradiction short-circuit (extension, §4 hint): everything
  // tagged — imperative, optional, or redundant — is entailed for any
  // qualifying tuple, so an unsatisfiable conjunction means the answer
  // is empty in every consistent database state.
  std::vector<Predicate> entailed;
  for (const Tagged& t : tagged) entailed.push_back(table.pool().Get(t.col));
  if (!ConjunctionSatisfiable(entailed)) {
    result.empty_result = true;
    result.query = original;
    for (const Tagged& t : tagged) {
      result.final_predicates.push_back(FinalPredicate{
          table.pool().Get(t.col), t.tag, t.in_query, false});
    }
    return result;
  }

  // 3. Build the working query: imperative + optional predicates.
  // Redundant-tagged ORIGINAL predicates may only stay out while the
  // remaining predicates entail them (checked in step 6's guard loop).
  Query working = original;
  working.join_predicates.clear();
  working.selective_predicates.clear();
  for (const Tagged& t : tagged) {
    if (t.tag == PredicateTag::kRedundant) continue;
    working.AddPredicate(table.pool().Get(t.col));
  }

  // Original predicates, for the entailment guards.
  std::vector<Predicate> original_preds = original.AllPredicates();

  // The soundness invariant of every candidate query: each ORIGINAL
  // predicate on a class absent from `candidate` is entailed by
  // `saturated`, the candidate's saturation. Steps 4 and 5 check it on
  // every elimination and every drop, introduced predicates included:
  // a predicate an earlier elimination dropped stays in force only
  // while something left in the query entails it, and a later
  // elimination or drop can remove that something.
  auto absent_classes_entailed = [&](const Query& candidate,
                                     const std::vector<Predicate>& saturated) {
    for (const Predicate& p : original_preds) {
      bool absent = false;
      for (ClassId c : p.ReferencedClasses()) {
        if (!candidate.ReferencesClass(c)) absent = true;
      }
      if (absent && !EntailmentOracle::Entails(saturated, p)) return false;
    }
    return true;
  };

  // 4. Class elimination (King's rule): a class with no projected
  // attributes, no imperative predicate, and exactly one relationship
  // link is dangling. Guard: the invariant above, on the query that is
  // left after the elimination. Iterate: removals can expose new
  // dangling classes.
  if (options.enable_class_elimination) {
    auto has_imperative_pred = [&](ClassId id) {
      for (const Tagged& t : tagged) {
        if (t.tag != PredicateTag::kImperative) continue;
        if (table.pool().Get(t.col).ReferencesClass(id)) return true;
      }
      return false;
    };
    bool changed = true;
    while (changed && working.classes.size() > 1) {
      changed = false;
      for (ClassId id : working.classes) {
        if (working.ProjectsFrom(id)) continue;
        if (working.RelationshipDegree(id, schema) != 1) continue;
        if (has_imperative_pred(id)) continue;
        Query without = working;
        without.RemoveClass(id, schema);

        if (!absent_classes_entailed(
                without, oracle.Saturate(without.AllPredicates()))) {
          continue;
        }

        if (cost_model != nullptr &&
            !EliminationIsProfitable(*cost_model, working, without)) {
          continue;
        }
        working = std::move(without);
        result.eliminated_classes.push_back(id);
        changed = true;
        break;  // class list changed; restart the scan
      }
    }
  }

  // 5. Profitability of the surviving optional predicates: greedily
  // drop any whose retention does not lower estimated cost. Optionals
  // on eliminated classes are already gone. A drop must keep the
  // invariant above, and an original-query optional must stay entailed
  // by the remaining predicates.
  for (Tagged& t : tagged) {
    if (t.tag != PredicateTag::kOptional) continue;
    const Predicate& p = table.pool().Get(t.col);
    if (!working.HasPredicate(p)) continue;
    if (cost_model == nullptr) continue;
    if (RetainIsProfitable(*cost_model, working, p)) continue;
    Query without = working;
    without.RemovePredicate(p);
    std::vector<Predicate> saturated =
        oracle.Saturate(without.AllPredicates());
    if (t.in_query && !EntailmentOracle::Entails(saturated, p)) continue;
    if (!absent_classes_entailed(without, saturated)) continue;
    // §3.4: non-profitable optional predicates are re-classified as
    // redundant and dropped.
    t.tag = PredicateTag::kRedundant;
    working = std::move(without);
  }

  // 6. Entailment guard for redundant-tagged original predicates on
  // surviving classes: re-add any that the final predicate set does not
  // entail (the mutual-implication cycle protection). Re-adding only
  // grows the entailed set, so a single fixpoint loop suffices.
  {
    bool readded = true;
    while (readded) {
      readded = false;
      std::vector<Predicate> saturated =
          oracle.Saturate(working.AllPredicates());
      for (Tagged& t : tagged) {
        if (!t.in_query || t.tag != PredicateTag::kRedundant) continue;
        const Predicate& p = table.pool().Get(t.col);
        // Skip predicates on eliminated classes (the invariant of steps
        // 4 and 5 guards them).
        bool on_surviving = true;
        for (ClassId c : p.ReferencedClasses()) {
          if (!working.ReferencesClass(c)) on_surviving = false;
        }
        if (!on_surviving) continue;
        if (working.HasPredicate(p)) continue;
        if (EntailmentOracle::Entails(saturated, p)) continue;
        // Not entailed: the drop was unsound — retain as optional.
        t.tag = PredicateTag::kOptional;
        working.AddPredicate(p);
        readded = true;
      }
    }
  }

  // 7. Emit.
  result.query = std::move(working);
  for (const Tagged& t : tagged) {
    const Predicate& p = table.pool().Get(t.col);
    bool retained =
        t.tag != PredicateTag::kRedundant && result.query.HasPredicate(p);
    result.final_predicates.push_back(
        FinalPredicate{p, t.tag, t.in_query, retained});
  }
  return result;
}

}  // namespace sqopt
