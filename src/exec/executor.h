// Plan execution with cost metering. The meter's unit accounting is the
// measured counterpart of the CostModel's estimates, and is what the
// Table 4.2 bench reports as "query cost".
//
// Execution is morsel-driven when the plan asks for it: the driving
// step's candidates (extent rows or index-lookup results) are split
// into fixed-size morsels, each morsel runs the ENTIRE pipeline —
// residual filters, relationship expansions, join predicates, cycle
// filters, projection — and the per-morsel row batches are merged in
// morsel order. Because morsels are positional slices of the ordered
// candidate list and every pipeline stage preserves per-binding order,
// the merged result is byte-identical (rows AND order) to a sequential
// run of the same plan; see DESIGN.md "Morsel-driven parallel scans".
#ifndef SQOPT_EXEC_EXECUTOR_H_
#define SQOPT_EXEC_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "common/worker_pool.h"
#include "cost/cost_model.h"
#include "exec/plan.h"
#include "storage/object_store.h"

namespace sqopt {

struct ExecutionMeter {
  uint64_t instances_scanned = 0;   // extent objects touched
  uint64_t index_probes = 0;        // index lookups
  uint64_t pointer_traversals = 0;  // relationship partner fetches
  uint64_t predicate_evals = 0;     // predicate evaluations
  uint64_t rows_out = 0;            // result rows

  // --- Morsel-parallel counters (all zero on sequential runs). The
  // work counters above are exact sums over morsels, so they are
  // identical to a sequential run of the same plan; only the four
  // below depend on the fan-out. ---
  uint64_t morsels = 0;          // morsels the driving scan was split into
  uint64_t morsel_workers = 0;   // distinct threads that ran >= 1 morsel
  uint64_t parallel_busy_micros = 0;  // summed per-morsel execution time
  uint64_t parallel_wall_micros = 0;  // wall time of the morsel phase

  // Measured cost in the same units the CostModel estimates.
  double CostUnits() const;

  // Busy/wall ratio of the morsel phase: the summed per-morsel busy
  // time over the phase's wall time, 0 for sequential runs. It reads
  // >1 when morsels overlapped, but it is not a speedup over the
  // sequential run: work wasted inside morsels (contention, cache
  // misses) raises the busy sum and so raises this ratio too.
  double ParallelSpeedup() const;

  void Reset() { *this = ExecutionMeter{}; }
};

struct ResultSet {
  std::vector<std::vector<Value>> rows;  // projection order

  // Order-insensitive multiset equality (queries are unordered).
  bool SameRows(const ResultSet& other) const;

  // Set-semantics equality: same distinct rows. Class elimination (and
  // 1991-era query semantics generally) preserves the distinct result
  // set, not bag multiplicities — see DESIGN.md.
  bool SameDistinctRows(const ResultSet& other) const;
};

// How to run a plan: hand the executor a pool and it honors the plan's
// parallelism; without a pool every plan runs sequentially. The
// submitting thread always participates in morsel work, so a saturated
// (or undersized) pool degrades throughput, never deadlocks.
struct ExecContext {
  WorkerPool* pool = nullptr;
};

Result<ResultSet> ExecutePlan(const ObjectStore& store, const Plan& plan,
                              ExecutionMeter* meter);
Result<ResultSet> ExecutePlan(const ObjectStore& store, const Plan& plan,
                              ExecutionMeter* meter,
                              const ExecContext& context);

// Convenience: plan + execute in one call using the store's own stats.
Result<ResultSet> ExecuteQuery(const ObjectStore& store, const Query& query,
                               ExecutionMeter* meter);

}  // namespace sqopt

#endif  // SQOPT_EXEC_EXECUTOR_H_
