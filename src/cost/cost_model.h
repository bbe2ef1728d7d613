// The "conventional optimizer" cost model the paper delegates to for the
// profitability function in §3.4 and for class elimination decisions.
// Estimates the I/O + CPU cost of evaluating a query as a greedy
// left-deep traversal of its relationship graph: pick the cheapest
// starting class (index access when an indexed selective predicate
// exists), then expand one relationship at a time, carrying intermediate
// cardinalities.
#ifndef SQOPT_COST_COST_MODEL_H_
#define SQOPT_COST_COST_MODEL_H_

#include <vector>

#include "cost/selectivity.h"
#include "cost/stats.h"
#include "query/query.h"

namespace sqopt {

// Weights of the model, in abstract cost units. ExecutionMeter::CostUnits
// prices a run's measured counters with the same weights.
inline constexpr double kPageInstances = 32;    // objects per page
inline constexpr double kCpuWeight = 0.02;      // per predicate evaluation
inline constexpr double kProbeWeight = 0.05;    // per index/pointer probe
inline constexpr double kOutputWeight = 0.001;  // per result row
// Charged per additional morsel-parallel scan worker (thread wake-up,
// per-morsel scheduling, and the merge of its row batch).
inline constexpr double kParallelFanoutOverhead = 0.25;

// Interface so the optimizer core can be tested with stub models.
class CostModelInterface {
 public:
  virtual ~CostModelInterface() = default;

  // Estimated execution cost of `query`, in abstract cost units.
  virtual double QueryCost(const Query& query) const = 0;
};

class CostModel : public CostModelInterface {
 public:
  CostModel(const Schema* schema, const DatabaseStats* stats)
      : schema_(schema), stats_(stats) {}

  double QueryCost(const Query& query) const override;

  // Cost of accessing one class given the selective predicates that
  // apply to it: index scan when an indexed predicate exists, else a
  // full extent scan. `multiplier` = how many times the access runs
  // (1 for the driving class, intermediate-size for inner classes).
  double ClassAccessCost(ClassId id,
                         const std::vector<Predicate>& predicates,
                         double multiplier) const;

 private:
  double Pages(double instances) const {
    double pages = instances / kPageInstances;
    return pages < 1.0 ? 1.0 : pages;
  }
  bool HasIndexedPredicate(ClassId id,
                           const std::vector<Predicate>& predicates) const;

  const Schema* schema_;
  const DatabaseStats* stats_;
};

// Decision helpers shared by the SQO formulation step and the baselines.

// True if dropping `p` from `query` does not increase estimated cost,
// i.e. retaining p is NOT profitable. Exposed for symmetric use.
bool RetainIsProfitable(const CostModelInterface& model, const Query& query,
                        const Predicate& p);

// True if `without` (the query after a candidate class elimination) is
// estimated cheaper than `with`.
bool EliminationIsProfitable(const CostModelInterface& model,
                             const Query& with, const Query& without);

// Parallelism-aware scan cost: `instances` driving candidates fanned
// across `workers` morsel workers. The page cost divides across the
// workers; each additional worker charges a fixed fan-out overhead, so
// small scans are never cheaper parallel.
double ParallelScanCost(double instances, int workers);

// The degree of parallelism in [1, max_parallelism] minimizing
// ParallelScanCost, additionally capped at one worker per morsel
// (fewer morsels than workers would leave workers idle). `morsel_size`
// is the executor's morsel size for the cap. Returns 1 (sequential)
// for small scans or max_parallelism <= 1.
int ChooseScanParallelism(double instances, int max_parallelism,
                          int64_t morsel_size);

}  // namespace sqopt

#endif  // SQOPT_COST_COST_MODEL_H_
