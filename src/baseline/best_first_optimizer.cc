#include "baseline/best_first_optimizer.h"

#include <queue>
#include <set>

#include "query/query_printer.h"

namespace sqopt {

namespace {

struct SearchNode {
  Query query;
  double cost;
};
struct NodeOrder {
  bool operator()(const SearchNode& a, const SearchNode& b) const {
    return a.cost > b.cost;  // min-heap on estimated cost
  }
};

}  // namespace

Result<BestFirstResult> BestFirstOptimizer::Optimize(
    const Query& query) const {
  SQOPT_RETURN_IF_ERROR(ValidateQuery(*schema_, query));
  if (!catalog_->precompiled()) {
    return Status::FailedPrecondition(
        "ConstraintCatalog::Precompile must run before Optimize");
  }
  if (cost_model_ == nullptr) {
    return Status::InvalidArgument(
        "best-first search requires a cost model");
  }

  std::vector<ConstraintId> relevant =
      catalog_->RelevantForQuery(query.classes);

  BestFirstResult result;
  result.query = query;
  result.best_cost = cost_model_->QueryCost(query);

  std::priority_queue<SearchNode, std::vector<SearchNode>, NodeOrder>
      frontier;
  std::set<std::string> seen;  // canonical printed form

  auto canonical = [&](const Query& q) {
    Query copy = q;
    copy.Normalize();
    return PrintQuery(*schema_, copy);
  };

  frontier.push(SearchNode{query, result.best_cost});
  seen.insert(canonical(query));
  result.states_generated = 1;

  while (!frontier.empty()) {
    if (result.states_explored >= max_states_) {
      result.exhausted_budget = true;
      break;
    }
    SearchNode node = frontier.top();
    frontier.pop();
    ++result.states_explored;

    if (node.cost < result.best_cost) {
      result.best_cost = node.cost;
      result.query = node.query;
    }

    // Successors: one transformation per applicable constraint.
    std::vector<Predicate> preds = node.query.AllPredicates();
    for (ConstraintId id : relevant) {
      const HornClause& clause = catalog_->clause(id);
      if (!clause.FiresOn(preds)) continue;
      const Predicate& consequent = clause.consequent();

      Query succ = node.query;
      if (succ.HasPredicate(consequent)) {
        succ.RemovePredicate(consequent);
      } else {
        succ.AddPredicate(consequent);
      }
      std::string key = canonical(succ);
      if (!seen.insert(key).second) continue;
      double cost = cost_model_->QueryCost(succ);
      frontier.push(SearchNode{std::move(succ), cost});
      ++result.states_generated;
    }
  }
  return result;
}

}  // namespace sqopt
