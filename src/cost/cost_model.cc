#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "expr/implication.h"
#include "storage/morsel.h"

namespace sqopt {

namespace {

// Predicates on `class_id`, attr-const only.
std::vector<Predicate> PredicatesOn(const std::vector<Predicate>& preds,
                                    ClassId class_id) {
  std::vector<Predicate> out;
  for (const Predicate& p : preds) {
    if (p.is_attr_const() && p.lhs().class_id == class_id) out.push_back(p);
  }
  return out;
}

// Selectivity product skipping predicates implied by the others on the
// same class: an implied predicate has marginal selectivity 1, so
// counting it would double-credit the filtering it duplicates. This is
// what lets the model judge redundant optional predicates unprofitable.
double MarginalClassSelectivity(const Schema& schema,
                                const DatabaseStats& stats,
                                const std::vector<Predicate>& class_preds) {
  double sel = 1.0;
  for (size_t i = 0; i < class_preds.size(); ++i) {
    std::vector<Predicate> others;
    for (size_t j = 0; j < class_preds.size(); ++j) {
      if (j != i) others.push_back(class_preds[j]);
    }
    if (!others.empty() && ConjunctionImplies(others, class_preds[i])) {
      continue;  // no marginal filtering
    }
    sel *= EstimateSelectivity(schema, stats, class_preds[i]);
  }
  return std::clamp(sel, kMinSelectivity, 1.0);
}

}  // namespace

bool CostModel::HasIndexedPredicate(
    ClassId id, const std::vector<Predicate>& predicates) const {
  for (const Predicate& p : predicates) {
    if (!p.is_attr_const()) continue;
    if (p.lhs().class_id != id) continue;
    if (schema_->attribute(p.lhs()).indexed) return true;
  }
  return false;
}

double CostModel::ClassAccessCost(ClassId id,
                                  const std::vector<Predicate>& predicates,
                                  double multiplier) const {
  double card = static_cast<double>(stats_->ClassCardinality(id));
  std::vector<Predicate> class_preds = PredicatesOn(predicates, id);
  double num_preds = static_cast<double>(class_preds.size());

  if (HasIndexedPredicate(id, class_preds)) {
    // Best indexed predicate drives the access path; the rest are
    // evaluated on the matches.
    double best_sel = 1.0;
    for (const Predicate& p : class_preds) {
      if (schema_->attribute(p.lhs()).indexed) {
        best_sel = std::min(best_sel,
                            EstimateSelectivity(*schema_, *stats_, p));
      }
    }
    double matches = std::max(card * best_sel, 1.0);
    double probe = kProbeWeight * std::log2(std::max(card, 2.0));
    double residual =
        matches * std::max(num_preds - 1.0, 0.0) * kCpuWeight;
    return multiplier * (probe + Pages(matches) + residual);
  }
  // Full extent scan, every predicate evaluated on every instance.
  return multiplier * (Pages(card) + card * num_preds * kCpuWeight);
}

double CostModel::QueryCost(const Query& query) const {
  if (query.classes.empty()) return 0.0;
  std::vector<Predicate> preds = query.AllPredicates();

  // Effective size of each class after its selective predicates.
  auto effective_size = [&](ClassId id) {
    double card = static_cast<double>(stats_->ClassCardinality(id));
    return card * MarginalClassSelectivity(*schema_, *stats_,
                                           PredicatesOn(preds, id));
  };

  // Driving class: cheapest access, ties broken by smaller effective
  // size so selective classes start the traversal.
  ClassId start = query.classes[0];
  double best_key = ClassAccessCost(start, preds, 1.0);
  for (ClassId id : query.classes) {
    double key = ClassAccessCost(id, preds, 1.0);
    if (key < best_key ||
        (key == best_key && effective_size(id) < effective_size(start))) {
      best_key = key;
      start = id;
    }
  }

  double cost = ClassAccessCost(start, preds, 1.0);
  double size = std::max(effective_size(start), kMinSelectivity);
  std::set<ClassId> visited = {start};
  std::set<RelId> used_rels;

  // Join predicates are applied once both endpoints are visited.
  std::vector<bool> join_applied(query.join_predicates.size(), false);
  auto apply_joins = [&] {
    for (size_t i = 0; i < query.join_predicates.size(); ++i) {
      if (join_applied[i]) continue;
      const Predicate& jp = query.join_predicates[i];
      if (visited.count(jp.lhs().class_id) > 0 &&
          visited.count(jp.rhs_attr().class_id) > 0) {
        join_applied[i] = true;
        cost += size * kCpuWeight;
        size *= EstimateSelectivity(*schema_, *stats_, jp);
        size = std::max(size, kMinSelectivity);
      }
    }
  };
  apply_joins();

  while (visited.size() < query.classes.size()) {
    // Greedy: the expandable relationship minimizing the resulting size.
    RelId best_rel = kInvalidRel;
    double best_size = 0.0;
    for (RelId rel_id : query.relationships) {
      if (used_rels.count(rel_id) > 0) continue;
      const Relationship& rel = schema_->relationship(rel_id);
      ClassId from, to;
      if (visited.count(rel.a) > 0 && visited.count(rel.b) == 0) {
        from = rel.a;
        to = rel.b;
      } else if (visited.count(rel.b) > 0 && visited.count(rel.a) == 0) {
        from = rel.b;
        to = rel.a;
      } else {
        continue;
      }
      double from_card =
          static_cast<double>(stats_->ClassCardinality(from));
      double fanout =
          static_cast<double>(stats_->RelationshipCardinality(rel_id)) /
          std::max(from_card, 1.0);
      double to_sel = MarginalClassSelectivity(*schema_, *stats_,
                                               PredicatesOn(preds, to));
      double new_size = size * fanout * to_sel;
      if (best_rel == kInvalidRel || new_size < best_size) {
        best_rel = rel_id;

        best_size = new_size;
      }
    }

    if (best_rel == kInvalidRel) {
      // Disconnected remainder (ValidateQuery rejects this, but stay
      // robust): cross product with the cheapest unvisited class.
      for (ClassId id : query.classes) {
        if (visited.count(id) > 0) continue;
        cost += ClassAccessCost(id, preds, 1.0);
        size *= std::max(effective_size(id), kMinSelectivity);
        visited.insert(id);
        break;
      }
      apply_joins();
      continue;
    }

    const Relationship& rel = schema_->relationship(best_rel);
    ClassId from = visited.count(rel.a) > 0 ? rel.a : rel.b;
    ClassId to = rel.Other(from);
    double from_card = static_cast<double>(stats_->ClassCardinality(from));
    double fanout =
        static_cast<double>(stats_->RelationshipCardinality(best_rel)) /
        std::max(from_card, 1.0);
    double partners = size * fanout;
    std::vector<Predicate> to_preds = PredicatesOn(preds, to);

    cost += size * kProbeWeight;  // pointer traversal per row
    double to_card = static_cast<double>(stats_->ClassCardinality(to));
    cost += Pages(std::min(partners, to_card));
    cost += partners * static_cast<double>(to_preds.size()) *
            kCpuWeight;

    size = std::max(partners * MarginalClassSelectivity(*schema_, *stats_,
                                                        to_preds),
                    kMinSelectivity);
    visited.insert(to);
    used_rels.insert(best_rel);
    apply_joins();
  }

  cost += size * kOutputWeight;
  return cost;
}

bool RetainIsProfitable(const CostModelInterface& model, const Query& query,
                        const Predicate& p) {
  Query without = query;
  auto drop = [&](std::vector<Predicate>* preds) {
    preds->erase(std::remove(preds->begin(), preds->end(), p),
                 preds->end());
  };
  drop(&without.join_predicates);
  drop(&without.selective_predicates);
  // `query` must contain p for the comparison to be meaningful; if it
  // does not, retaining is vacuously unprofitable.
  if (without.join_predicates.size() == query.join_predicates.size() &&
      without.selective_predicates.size() ==
          query.selective_predicates.size()) {
    return false;
  }
  return model.QueryCost(query) < model.QueryCost(without);
}

bool EliminationIsProfitable(const CostModelInterface& model,
                             const Query& with, const Query& without) {
  return model.QueryCost(without) <= model.QueryCost(with);
}

double ParallelScanCost(double instances, int workers) {
  if (workers < 1) workers = 1;
  double pages = instances / kPageInstances;
  if (instances > 0 && pages < 1.0) pages = 1.0;
  return pages / static_cast<double>(workers) +
         kParallelFanoutOverhead * static_cast<double>(workers - 1);
}

int ChooseScanParallelism(double instances, int max_parallelism,
                          int64_t morsel_size) {
  if (max_parallelism <= 1 || instances <= 0) return 1;
  // The executor cuts non-positive sizes at the default (MakeMorsels).
  if (morsel_size <= 0) morsel_size = kDefaultMorselSize;
  const double morsels =
      std::ceil(instances / static_cast<double>(morsel_size));
  int cap = max_parallelism;
  if (morsels < static_cast<double>(cap)) cap = static_cast<int>(morsels);
  int best = 1;
  double best_cost = ParallelScanCost(instances, 1);
  for (int workers = 2; workers <= cap; ++workers) {
    double cost = ParallelScanCost(instances, workers);
    if (cost < best_cost) {
      best_cost = cost;
      best = workers;
    }
  }
  return best;
}

}  // namespace sqopt
