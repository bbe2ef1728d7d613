// Configuration of an sqopt::Engine. One flat struct groups the knobs
// of every internal layer: the semantic optimizer (tag policy, match
// mode, queue discipline, budget), the constraint precompiler (closure
// materialization, grouping policy) and the serving knobs (plan cache,
// morsel parallelism, durability). The cost model's weights are
// constants (cost/cost_model.h), and so is the write path's replan
// threshold (kReplanThreshold below). Every knob is fixed at
// Engine::Open except the optimizer's, which Engine::SetOptimizerOptions
// may replace. Defaults reproduce the paper's design end to end.
#ifndef SQOPT_API_ENGINE_OPTIONS_H_
#define SQOPT_API_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "constraints/constraint_catalog.h"
#include "sqo/options.h"
#include "storage/morsel.h"

namespace sqopt {

// Replan threshold for the write path: Engine::Apply drops the plan
// cache only when a commit's statistics drift — the fraction of a
// touched class's rows (or a touched relationship's pairs) the batch
// changed — reaches this value. Below it, cached plans survive and
// simply execute against the new snapshot (plans are correct for any
// snapshot of the same schema; the threshold trades planning
// optimality for cache hits).
inline constexpr double kReplanThreshold = 0.15;

// Durability knobs for engines attached to a persistence directory
// (Engine::Save / Engine::Open(dir)); ignored on purely in-memory
// engines. See DESIGN.md "Durability".
struct DurabilityOptions {
  // fsync the write-ahead log on every committed Apply before the
  // snapshot is published. Off skips only the flush (the record is
  // still written), trading durability of the last few commits against
  // an OS crash for commit latency; a process kill loses nothing
  // either way.
  bool fsync = true;
};

// Serving knobs, fixed at Engine::Open for the engine's lifetime.
// Concurrency comes from callers: any number of threads may call
// Engine::Execute against one engine and share its plan cache. The
// engine itself only fans a single query's scan out over morsels.
struct ServeOptions {
  // Size of the engine's one morsel pool, which parallel plans fan
  // their scans across. 0 = hardware concurrency, clamped to [1, 16].
  // The pool is created on the first parallel plan and lives as long as
  // the engine state.
  int threads = 0;

  // Total plan-cache entry budget (0 disables the cache).
  size_t cache_capacity = 256;

  // Intra-query parallelism: the ceiling on how many workers one
  // query's driving scan (extent scan or index range scan) may fan its
  // morsels across. 1 = sequential execution (default); 0 = the
  // resolved thread count. The planner chooses the actual degree per
  // plan — and keeps small scans sequential — via the cost model's
  // ChooseScanParallelism, so raising this never pessimizes cheap
  // queries.
  int parallelism = 1;

  // Driving-step candidates per morsel for parallel scans.
  // Non-positive falls back to the same default.
  int64_t morsel_size = kDefaultMorselSize;

  // WAL flushing for durable engines (see DurabilityOptions).
  DurabilityOptions durability;
};

struct EngineOptions {
  // Semantic-optimizer knobs (§3–§4): tag_policy, match_mode, queue,
  // transformation_budget, enable_class_elimination. Profitability
  // analysis runs whenever data is loaded: the cost model needs the
  // store's statistics, so Analyze before Load retains every optional
  // predicate (the paper's walkthrough).
  OptimizerOptions optimizer;

  // Constraint precompilation (§3): materialize_closure and the
  // grouping policy that drives per-query retrieval.
  PrecompileOptions precompile;

  // Serving: the shared plan-cache capacity (cache_capacity = 0 turns
  // the cache off and every Execute pays the full parse/retrieve/plan
  // pipeline), and the intra-query morsel-parallelism knobs (threads,
  // parallelism, morsel_size) that let a single query's scan fan out
  // across the engine's morsel pool.
  ServeOptions serve;
};

}  // namespace sqopt

#endif  // SQOPT_API_ENGINE_OPTIONS_H_
