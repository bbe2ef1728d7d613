#include "exec/plan_builder.h"

#include <algorithm>
#include <set>

#include "cost/selectivity.h"

namespace sqopt {

void CollectAttrStats(const ObjectStore& store, const AttrRef& ref,
                      DatabaseStats* stats) {
  AttrStatsData data;
  data.distinct_values = store.DistinctValues(ref);
  if (store.NumLiveObjects(ref.class_id) > 0) {
    auto [min, max] = store.MinMax(ref);
    if (!min.is_null() && min.is_numeric()) {
      data.min = min;
      data.max = max;
      // Numeric attribute: collect an equi-width histogram too.
      data.histogram = Histogram::Build(store.LiveValues(ref));
    }
  }
  stats->SetAttrStats(ref, std::move(data));
}

void CollectClassStats(const ObjectStore& store, ClassId class_id,
                       DatabaseStats* stats) {
  const Schema& schema = store.schema();
  stats->SetClassCardinality(class_id, store.NumLiveObjects(class_id));
  for (AttrId attr_id : schema.LayoutOf(class_id)) {
    CollectAttrStats(store, AttrRef{class_id, attr_id}, stats);
  }
}

void CollectRelationshipStats(const ObjectStore& store, RelId rel_id,
                              DatabaseStats* stats) {
  stats->SetRelationshipCardinality(rel_id, store.NumPairs(rel_id));
}

DatabaseStats CollectStats(const ObjectStore& store) {
  const Schema& schema = store.schema();
  DatabaseStats stats;
  for (const ObjectClass& oc : schema.classes()) {
    CollectClassStats(store, oc.id, &stats);
  }
  for (const Relationship& rel : schema.relationships()) {
    CollectRelationshipStats(store, rel.id, &stats);
  }
  return stats;
}

Result<Plan> BuildPlan(const Schema& schema, const DatabaseStats& stats,
                       const Query& query) {
  return BuildPlan(schema, stats, query, PlanningOptions{});
}

Result<Plan> BuildPlan(const Schema& schema, const DatabaseStats& stats,
                       const Query& query, const PlanningOptions& options) {
  SQOPT_RETURN_IF_ERROR(ValidateQuery(schema, query));

  Plan plan;
  plan.projection = query.projection;
  plan.join_predicates = query.join_predicates;

  auto preds_on = [&](ClassId id) {
    std::vector<Predicate> out;
    for (const Predicate& p : query.selective_predicates) {
      if (p.lhs().class_id == id) out.push_back(p);
    }
    return out;
  };

  // Driving class: estimated candidate count after its best access
  // path; indexed predicates shrink the candidates to card * sel.
  auto driving_estimate = [&](ClassId id, std::optional<Predicate>* best) {
    double card = static_cast<double>(stats.ClassCardinality(id));
    double best_cost = card;  // full scan candidate count
    std::optional<Predicate> best_pred;
    for (const Predicate& p : preds_on(id)) {
      if (!schema.attribute(p.lhs()).indexed) continue;
      if (p.op() == CompareOp::kNe) continue;  // index not useful
      double matches = card * EstimateSelectivity(schema, stats, p);
      if (matches < best_cost) {
        best_cost = matches;
        best_pred = p;
      }
    }
    *best = best_pred;
    return best_cost;
  };

  ClassId start = query.classes[0];
  std::optional<Predicate> start_index;
  double start_cost = 0.0;
  // The winner's pre-residual candidate estimate, kept for the
  // parallel-scan decision below (residuals filter inside the scan,
  // they don't shrink it).
  double start_candidates = 0.0;
  {
    bool first = true;
    for (ClassId id : query.classes) {
      std::optional<Predicate> candidate_index;
      double est_candidates = driving_estimate(id, &candidate_index);
      // Apply residual selectivity so a heavily filtered class is
      // preferred even without an index.
      double cost =
          est_candidates * ClassSelectivity(schema, stats, preds_on(id), id);
      if (first || cost < start_cost) {
        first = false;
        start = id;
        start_cost = cost;
        start_candidates = est_candidates;
        start_index = candidate_index;
      }
    }
  }

  AccessStep drive;
  drive.class_id = start;
  drive.index_predicate = start_index;
  for (const Predicate& p : preds_on(start)) {
    if (start_index.has_value() && p == *start_index) continue;
    drive.residual_predicates.push_back(p);
  }
  ClassifyResiduals(&drive);
  plan.steps.push_back(std::move(drive));

  // Morsel-parallel scan decision: the driving candidate count (the
  // work the morsels split — full cardinality on a scan, card *
  // selectivity behind an index) was estimated during driving-class
  // selection; let the cost model pick a degree that amortizes the
  // fan-out.
  if (options.max_parallelism > 1) {
    plan.parallelism = ChooseScanParallelism(
        start_candidates, options.max_parallelism, options.morsel_size);
  }
  plan.morsel_size = options.morsel_size;

  std::set<ClassId> bound = {start};
  std::set<RelId> used;
  while (bound.size() < query.classes.size()) {
    RelId best_rel = kInvalidRel;
    ClassId best_from = kInvalidClass, best_to = kInvalidClass;
    double best_size = 0.0;
    for (RelId rel_id : query.relationships) {
      if (used.count(rel_id) > 0) continue;
      const Relationship& rel = schema.relationship(rel_id);
      ClassId from, to;
      if (bound.count(rel.a) > 0 && bound.count(rel.b) == 0) {
        from = rel.a;
        to = rel.b;
      } else if (bound.count(rel.b) > 0 && bound.count(rel.a) == 0) {
        from = rel.b;
        to = rel.a;
      } else {
        continue;
      }
      double fanout =
          static_cast<double>(stats.RelationshipCardinality(rel_id)) /
          std::max(1.0, static_cast<double>(stats.ClassCardinality(from)));
      double size =
          fanout * ClassSelectivity(schema, stats, preds_on(to), to);
      if (best_rel == kInvalidRel || size < best_size) {
        best_rel = rel_id;
        best_from = from;
        best_to = to;
        best_size = size;
      }
    }
    if (best_rel == kInvalidRel) {
      return Status::InvalidArgument(
          "cannot plan: query relationship graph is disconnected");
    }
    AccessStep step;
    step.class_id = best_to;
    step.via_rel = best_rel;
    step.from_class = best_from;
    step.residual_predicates = preds_on(best_to);
    ClassifyResiduals(&step);
    plan.steps.push_back(std::move(step));
    bound.insert(best_to);
    used.insert(best_rel);
  }

  // Relationships not used for expansion close cycles in the query
  // graph; the executor enforces them as membership filters once both
  // endpoints are bound.
  for (RelId rel_id : query.relationships) {
    if (used.count(rel_id) == 0) {
      plan.residual_relationships.push_back(rel_id);
    }
  }
  return plan;
}

}  // namespace sqopt
