#include "sqo/optimizer.h"

#include <chrono>

#include "expr/implication.h"
#include "sqo/formulation.h"
#include "sqo/transform_queue.h"

namespace sqopt {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The tag a firing of `row` would assign to target predicate `col`,
// per Tables 3.1/3.2. Intra-class constraints make the target redundant
// unless it sits on an indexed attribute (where it may still pay for
// itself via index access); inter-class constraints always yield
// optional (the target may be evaluated before the antecedents and cut
// intermediate results).
PredicateTag TargetTag(const Schema& schema,
                       const TransformationTable::Row& row, PredId col,
                       const PredicatePool& pool, TagPolicy policy) {
  if (row.classification == ConstraintClass::kInter) {
    return PredicateTag::kOptional;
  }
  if (policy == TagPolicy::kIgnoreIndexes) {
    return PredicateTag::kRedundant;
  }
  const Predicate& p = pool.Get(col);
  bool indexed =
      p.is_attr_const() && schema.attribute(p.lhs()).indexed;
  return indexed ? PredicateTag::kOptional : PredicateTag::kRedundant;
}

// Whether the cell state can still be lowered by a firing that assigns
// `target`.
bool Lowerable(CellState state, PredicateTag target) {
  switch (state) {
    case CellState::kImperative:
    case CellState::kAbsentConsequent:
      return true;  // any tag is a strict lowering / an introduction
    case CellState::kOptional:
      return target == PredicateTag::kRedundant;
    default:
      return false;
  }
}

}  // namespace

Result<OptimizeResult> SemanticOptimizer::Optimize(const Query& query) const {
  SQOPT_RETURN_IF_ERROR(ValidateQuery(*schema_, query));
  if (!catalog_->precompiled()) {
    return Status::FailedPrecondition(
        "ConstraintCatalog::Precompile must run before Optimize");
  }

  OptimizeResult result;
  OptimizationReport& report = result.report;
  int64_t t_start = NowNs();

  // ---- Initialization (§3.1): retrieval, relevance, table build. ----
  std::vector<ConstraintId> relevant =
      catalog_->RelevantForQuery(query.classes);
  TransformationTable table = TransformationTable::Build(
      *schema_, *catalog_, relevant, query, options_);
  report.num_relevant_constraints = relevant.size();
  report.num_distinct_predicates = table.num_cols();
  int64_t t_init = NowNs();
  report.init_ns = t_init - t_start;

  // ---- Update-queue / transformation loop (§3.2, §3.3). ----
  TransformQueue queue(options_.queue);

  // Scans C and enqueues every constraint that can fire. Returns the
  // number of rows enqueued.
  auto update_queue = [&]() -> size_t {
    size_t enqueued = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      TransformationTable::Row& row = table.mutable_row(r);
      if (row.removed || queue.Contains(r)) continue;

      bool any_lowerable = false;
      TransformPriority priority =
          TransformPriority::kRestrictionIntroduction;
      for (PredId col : row.fire_targets) {
        CellState st = table.state(r, col);
        PredicateTag target =
            TargetTag(*schema_, row, col, table.pool(), options_.tag_policy);
        if (Lowerable(st, target)) {
          any_lowerable = true;
          // Rule priority for the priority-queue discipline.
          if (st == CellState::kAbsentConsequent) {
            const Predicate& p = table.pool().Get(col);
            bool indexed =
                p.is_attr_const() && schema_->attribute(p.lhs()).indexed;
            TransformPriority pr =
                indexed ? TransformPriority::kIndexIntroduction
                        : TransformPriority::kRestrictionIntroduction;
            if (pr < priority) priority = pr;
          } else {
            if (TransformPriority::kRestrictionElimination < priority) {
              priority = TransformPriority::kRestrictionElimination;
            }
          }
        }
      }
      if (!any_lowerable) {
        // Nothing this constraint could ever lower: remove it from C
        // (the paper's Redundant / inter-Optional removal cases).
        row.removed = true;
        continue;
      }
      if (table.AllAntecedentsPresent(r)) {
        queue.Push(r, priority);
        ++enqueued;
      }
    }
    return enqueued;
  };

  // Fires row `r`: lowers each lowerable fire target and propagates the
  // new state down the target's column (§3.3).
  auto fire = [&](size_t r) {
    TransformationTable::Row& row = table.mutable_row(r);
    TransformStep step;
    step.constraint = row.constraint;
    step.constraint_label = catalog_->clause(row.constraint).label();

    for (PredId col : row.fire_targets) {
      CellState st = table.state(r, col);
      PredicateTag new_tag =
          TargetTag(*schema_, row, col, table.pool(), options_.tag_policy);
      if (!Lowerable(st, new_tag)) continue;  // already lowered by a
                                              // constraint ahead in Q

      bool introduction = (st == CellState::kAbsentConsequent);
      table.set_state(r, col, StateOfTag(new_tag));
      step.effects.emplace_back(table.pool().Get(col), new_tag);
      if (introduction) {
        step.introduced = true;
        const Predicate& p = table.pool().Get(col);
        if (p.is_attr_const() && schema_->attribute(p.lhs()).indexed) {
          step.index_introduction = true;
        }
      }

      // Column propagation: the predicate is now "present" with tag
      // new_tag for every constraint.
      for (size_t k = 0; k < table.num_rows(); ++k) {
        if (k == r) continue;
        CellState sk = table.state(k, col);
        switch (sk) {
          case CellState::kAbsentAntecedent:
            table.set_state(k, col, CellState::kPresentAntecedent);
            break;
          case CellState::kImperative:
          case CellState::kOptional:
          case CellState::kRedundant:
            // Monotone guard: never raise a tag (the paper's overwrite
            // can only run downward because Update-Queue removes rows
            // whose targets are already minimal).
            if (TagLowerThan(new_tag, TagOfState(sk))) {
              table.set_state(k, col, StateOfTag(new_tag));
            }
            break;
          case CellState::kAbsentConsequent:
            // The predicate is now present at new_tag; leaving the cell
            // as AbsentConsequent would let constraint k "re-introduce"
            // a predicate another constraint already lowered — the
            // pitfall §2 warns about ("prevent the introduction of
            // predicates which were previously eliminated"). Intra rows
            // can still lower an Optional cell to Redundant afterwards.
            table.set_state(k, col, StateOfTag(new_tag));
            break;
          default:
            break;
        }
      }

      // Implied antecedent matching: an introduced/lowered predicate may
      // satisfy antecedents in *other* columns (x = 5 satisfies x > 0).
      if (options_.match_mode == MatchMode::kImplied) {
        const Predicate& p = table.pool().Get(col);
        for (size_t k = 0; k < table.num_rows(); ++k) {
          for (PredId a : table.row(k).antecedents) {
            if (a == col) continue;
            if (table.state(k, a) != CellState::kAbsentAntecedent) continue;
            if (Implies(p, table.pool().Get(a))) {
              table.set_state(k, a, CellState::kPresentAntecedent);
            }
          }
        }
      }
    }

    if (!step.effects.empty()) {
      report.steps.push_back(std::move(step));
      ++report.num_firings;
    }
    row.fired = true;
  };

  // Main loop: update the queue, drain it, repeat until an update adds
  // nothing (Figure 3.1's "queue empty immediately after update").
  while (true) {
    ++report.queue_updates;
    update_queue();
    if (queue.empty()) break;
    while (!queue.empty()) {
      if (options_.transformation_budget > 0 &&
          report.num_firings >= options_.transformation_budget) {
        report.budget_exhausted = true;
        while (!queue.empty()) queue.Pop();
        break;
      }
      fire(queue.Pop());
    }
    if (report.budget_exhausted) break;
  }
  report.cell_writes = table.cell_writes();
  int64_t t_transform = NowNs();
  report.transform_ns = t_transform - t_init;

  // ---- Query formulation (§3.4). ----
  FormulationResult formulation = FormulateQuery(
      *schema_, query, table, *catalog_, relevant, cost_model_, options_);
  result.query = std::move(formulation.query);
  result.empty_result = formulation.empty_result;
  report.empty_result = formulation.empty_result;
  report.final_predicates = std::move(formulation.final_predicates);
  report.eliminated_classes = std::move(formulation.eliminated_classes);

  int64_t t_end = NowNs();
  report.formulate_ns = t_end - t_transform;
  report.total_ns = t_end - t_start;
  return result;
}

}  // namespace sqopt
