#include "baseline/immediate_optimizer.h"

#include "expr/implication.h"

namespace sqopt {

Result<ImmediateResult> ImmediateApplyOptimizer::Optimize(
    const Query& query) const {
  std::vector<ConstraintId> order =
      catalog_->RelevantForQuery(query.classes);
  return OptimizeWithOrder(query, order);
}

Result<ImmediateResult> ImmediateApplyOptimizer::OptimizeWithOrder(
    const Query& query, const std::vector<ConstraintId>& order) const {
  SQOPT_RETURN_IF_ERROR(ValidateQuery(*schema_, query));
  if (!catalog_->precompiled()) {
    return Status::FailedPrecondition(
        "ConstraintCatalog::Precompile must run before Optimize");
  }

  ImmediateResult result;
  result.query = query;

  // Fixpoint over passes: a pass applies every transformation that is
  // applicable AND deemed profitable at the moment it is examined.
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.passes;
    for (ConstraintId id : order) {
      const HornClause& clause = catalog_->clause(id);
      if (!clause.FiresOn(result.query.AllPredicates())) continue;
      const Predicate& consequent = clause.consequent();

      if (result.query.HasPredicate(consequent)) {
        // Candidate: restriction elimination.
        ++result.transformations_considered;
        Query after = result.query;
        after.RemovePredicate(consequent);
        if (cost_model_ == nullptr ||
            cost_model_->QueryCost(after) <=
                cost_model_->QueryCost(result.query)) {
          result.query = std::move(after);
          ++result.transformations_applied;
          changed = true;
        }
      } else {
        // Candidate: restriction/index introduction. Skip if already
        // implied outright (nothing to gain).
        ++result.transformations_considered;
        if (ConjunctionImplies(result.query.AllPredicates(), consequent)) {
          continue;
        }
        Query after = result.query;
        after.AddPredicate(consequent);
        if (cost_model_ != nullptr &&
            cost_model_->QueryCost(after) <
                cost_model_->QueryCost(result.query)) {
          result.query = std::move(after);
          ++result.transformations_applied;
          changed = true;
        }
      }
    }
    // Guard against elimination/introduction ping-pong: once passes
    // exceed the constraint count, stop (each constraint can usefully
    // apply at most once).
    if (result.passes > order.size() + 1) break;
  }

  // Class elimination, same structural rule as the core optimizer.
  bool eliminated = true;
  while (eliminated && result.query.classes.size() > 1) {
    eliminated = false;
    for (ClassId id : result.query.classes) {
      if (result.query.ProjectsFrom(id)) continue;
      if (result.query.RelationshipDegree(id, *schema_) != 1) continue;
      // Any remaining predicate on the class blocks elimination in this
      // baseline (it has no tag information to know better).
      bool has_pred = false;
      for (const Predicate& p : result.query.AllPredicates()) {
        if (p.ReferencesClass(id)) has_pred = true;
      }
      if (has_pred) continue;
      Query after = result.query;
      after.RemoveClass(id, *schema_);
      if (cost_model_ == nullptr ||
          cost_model_->QueryCost(after) <=
              cost_model_->QueryCost(result.query)) {
        result.query = std::move(after);
        eliminated = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace sqopt
