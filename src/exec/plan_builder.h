// Builds a physical Plan for a (possibly semantically optimized) query:
// picks the cheapest driving class — preferring indexed selective
// predicates — then greedily expands relationships by estimated
// intermediate size. This is the "conventional optimizer" layer under
// the semantic optimizer.
#ifndef SQOPT_EXEC_PLAN_BUILDER_H_
#define SQOPT_EXEC_PLAN_BUILDER_H_

#include "common/status.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "exec/plan.h"
#include "query/query.h"
#include "storage/object_store.h"

namespace sqopt {

// Physical-planning knobs beyond the query itself. Defaults plan
// sequential execution (the historical behavior).
struct PlanningOptions {
  // Fan-out ceiling for the driving step's morsel-parallel scan
  // (<= 1 plans sequential execution). The planner picks the actual
  // degree per plan with ChooseScanParallelism, so small scans stay
  // sequential regardless of this ceiling.
  int max_parallelism = 1;
  // Driving candidates per morsel, stamped into the plan for the
  // executor. Non-positive falls back to the default.
  int64_t morsel_size = kDefaultMorselSize;
};

// `stats` drives access-path choice; use CollectStats(store) for
// actuals or synthesize for tests.
Result<Plan> BuildPlan(const Schema& schema, const DatabaseStats& stats,
                       const Query& query);
Result<Plan> BuildPlan(const Schema& schema, const DatabaseStats& stats,
                       const Query& query, const PlanningOptions& options);

// Gathers cardinalities, relationship cardinalities, and per-attribute
// distinct counts + min/max + histograms from a store (live rows only).
DatabaseStats CollectStats(const ObjectStore& store);

// Recollects the statistics of ONE class (cardinality + every attribute's
// distinct count / min-max / histogram) into `stats`, leaving all other
// classes untouched. The write path's incremental alternative to a full
// CollectStats after a commit that mutated only a few classes.
void CollectClassStats(const ObjectStore& store, ClassId class_id,
                       DatabaseStats* stats);

// Same for one relationship's pair cardinality.
void CollectRelationshipStats(const ObjectStore& store, RelId rel_id,
                              DatabaseStats* stats);

// Recollects ONE attribute's statistics (distinct count / min-max /
// histogram), leaving the rest of `stats` untouched — the fallback when
// the commit path's incremental histogram patch cannot absorb a change
// (value outside the bucket range, or no stats collected yet).
void CollectAttrStats(const ObjectStore& store, const AttrRef& ref,
                      DatabaseStats* stats);

}  // namespace sqopt

#endif  // SQOPT_EXEC_PLAN_BUILDER_H_
