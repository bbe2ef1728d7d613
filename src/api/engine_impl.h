// INTERNAL: shared state behind the Engine pimpl, and the one run
// function every read path executes through. Included only by
// engine.cc, plan_cache.cc and prepared_query.cc (and plan_cache_test)
// — not part of the public API.
//
// Thread-safety contract: after Open()/AddConstraint()/Recompile()
// complete, everything here is read-only on the query path except the
// atomic counters, the atomic index/retrieval meters inside the owned
// components, the mutex-guarded AccessStats, the internally-locked
// plan cache, the once-created morsel pool, and the loaded-data slot.
// Load() IS safe to run concurrently with the read path: it publishes
// a fully-built LoadedData snapshot under data_mutex and readers pin
// the snapshot they started with.
#ifndef SQOPT_API_ENGINE_IMPL_H_
#define SQOPT_API_ENGINE_IMPL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "api/engine_options.h"
#include "api/mutation.h"
#include "api/plan_cache.h"
#include "catalog/access_stats.h"
#include "catalog/schema.h"
#include "common/worker_pool.h"
#include "constraints/constraint_catalog.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "persist/wal.h"
#include "sqo/report.h"
#include "storage/object_store.h"

namespace sqopt {
struct QueryOutcome;
}  // namespace sqopt

namespace sqopt::detail {

// Everything one Load() or one committed Apply() produced, published as
// one immutable snapshot. Readers (Execute / Prepare / cached plans)
// pin the snapshot they started with, so a concurrent reload or commit
// never swaps the store, the statistics, or the cost model out from
// under a running query. Apply() builds its snapshot as a copy-on-write
// sibling of the previous one (ObjectStore::CloneForWrite), so
// consecutive versions share every segment, adjacency chunk and index
// node no commit touched.
struct LoadedData {
  std::shared_ptr<const ObjectStore> store;
  DatabaseStats db_stats;
  std::unique_ptr<const CostModel> cost_model;
  // 1 for a fresh Load; +1 per committed Apply on the lineage.
  uint64_t version = 1;
  // Which Load() this snapshot descends from. Apply preserves it; a
  // reload starts a new lineage. Prepared plans follow the CURRENT
  // snapshot within their own lineage (so they observe commits) but
  // stick to their pinned snapshot across a reload — the documented
  // PreparedQuery contract.
  uint64_t lineage = 0;
};

// One caller's pending commit in the group-commit queue. Stack-owned
// by the submitting thread (Engine::Apply / ApplyGroup), which blocks
// until `done` — so a queued pointer is always valid. `result` is
// engaged by the group leader for every member of its group (success,
// per-batch typed failure, or the group-wide WAL error).
struct CommitRequest {
  const MutationBatch* batch = nullptr;
  std::optional<Result<ApplyOutcome>> result;
  bool done = false;  // guarded by EngineState::group_mutex
};

struct EngineState {
  EngineState(Schema s, EngineOptions opts)
      : schema(std::move(s)),
        catalog(&schema),
        access(schema.num_classes()),
        options(std::move(opts)),
        plan_cache(options.serve.cache_capacity) {}

  // EngineState lives on the heap behind a shared_ptr and is never
  // moved, so the internal schema/catalog pointer wiring stays valid.
  EngineState(const EngineState&) = delete;
  EngineState& operator=(const EngineState&) = delete;

  std::shared_ptr<const LoadedData> data_snapshot() const {
    std::lock_guard<std::mutex> lock(data_mutex);
    return data;
  }

  // The engine's one morsel pool, sized by serve.threads and created
  // on the first parallel plan. It lives exactly as long as this state,
  // which every Engine and PreparedQuery executing a plan co-owns, so
  // callers borrow it by raw pointer.
  WorkerPool* GetMorselPool() const {
    std::call_once(pool_once, [this] {
      pool = std::make_unique<WorkerPool>(
          WorkerPool::ResolveThreads(options.serve.threads));
    });
    return pool.get();
  }

  Schema schema;
  ConstraintCatalog catalog;
  mutable AccessStats access;  // guarded by access_mutex on the query path
  EngineOptions options;

  // Published by Load()/Apply() under data_mutex; null until the first
  // Load().
  std::shared_ptr<const LoadedData> data;
  mutable std::mutex data_mutex;

  // Serializes snapshot producers (Load and Apply): a commit clones,
  // mutates, validates, and publishes under this lock, so writers never
  // race each other. Readers never take it — they pin `data`.
  mutable std::mutex commit_mutex;

  // Group-commit coordination (engine.cc, CommitThroughGroup): callers
  // queue CommitRequests under group_mutex; the caller whose first
  // request heads the queue becomes leader, sweeps the WHOLE queue
  // into one group, commits it under commit_mutex (one WAL append, one
  // fsync, one published snapshot), then marks every member done and
  // notifies. group_mutex is never held while commit_mutex is taken.
  std::mutex group_mutex;
  std::condition_variable group_cv;
  std::deque<CommitRequest*> commit_queue;  // guarded by group_mutex
  bool group_leader_active = false;         // guarded by group_mutex
  // Monotonic Load() counter feeding LoadedData::lineage. Guarded by
  // commit_mutex.
  uint64_t lineages = 0;

  // Durable attachment (Engine::Save / Open(dir)); both guarded by
  // commit_mutex. Null/empty on purely in-memory engines. When `wal`
  // is set, Apply appends the batch (CRC-framed, fsync'd per
  // options.serve.durability) BEFORE publishing its snapshot, and
  // Checkpoint folds the log into a fresh snapshot file. Load()
  // detaches: a wholesale data replacement invalidates the on-disk
  // lineage, so the caller must Save() again to re-attach.
  std::unique_ptr<persist::WalWriter> wal;
  std::string persist_dir;

  // Replication tap (Engine::SetCommitListener): invoked under
  // commit_mutex after every published commit group with the group's
  // version range and its encoded record — total order, no gaps.
  std::function<void(uint64_t, uint64_t, std::shared_ptr<const std::string>)>
      commit_listener;

  // Shared plan cache for Execute/Prepare (internally synchronized).
  mutable PlanCache plan_cache;

  // Written once, under pool_once (see GetMorselPool).
  mutable std::unique_ptr<WorkerPool> pool;
  mutable std::once_flag pool_once;

  mutable std::mutex access_mutex;

  mutable std::atomic<uint64_t> queries_parsed{0};
  mutable std::atomic<uint64_t> queries_executed{0};
  mutable std::atomic<uint64_t> queries_analyzed{0};
  mutable std::atomic<uint64_t> statements_prepared{0};
  mutable std::atomic<uint64_t> prepared_executions{0};
  mutable std::atomic<uint64_t> contradictions{0};
  mutable std::atomic<uint64_t> mutation_batches_applied{0};
  mutable std::atomic<uint64_t> mutation_ops_applied{0};
  mutable std::atomic<uint64_t> mutation_batches_rejected{0};
  mutable std::atomic<uint64_t> checkpoints{0};
  mutable std::atomic<uint64_t> wal_records_replayed{0};
  mutable std::atomic<uint64_t> stats_recollections{0};
};

// One prepared query: built by the engine's one prepare function
// (BuildPrepared in engine.cc) and shared by PreparedQuery handles and
// plan-cache entries. Immutable after construction (the execution
// counter aside), so one instance can serve any number of threads.
struct PreparedState {
  Query original;
  Query transformed;  // == original for ExecuteUnoptimized
  OptimizationReport report;
  bool empty_result = false;

  // The data snapshot the plan was built against (null when the engine
  // had no data at Prepare time — such a handle only replays the
  // analysis, and RunPrepared refuses it). Execution rebinds the plan
  // to the engine's CURRENT snapshot of the same Load lineage, so
  // cached plans observe committed mutations (plans are correct for any
  // snapshot of the same schema — only their cost choices age, which
  // the replan threshold bounds); across a reload the plan runs on
  // this pin.
  std::shared_ptr<const LoadedData> data;
  std::optional<Plan> plan;  // engaged iff data && !empty_result

  mutable std::atomic<uint64_t> executions{0};
};

// The one run function behind every Engine execute path and
// PreparedQuery::Execute: runs `prepared`'s plan against `data`, the
// caller's pinned CURRENT snapshot, with `meter`. A query proven empty
// counts a contradiction and returns no rows without touching the
// store; an entry with no plan (prepared before Load) is
// kFailedPrecondition. Parallel plans borrow the engine's morsel pool.
Result<ResultSet> RunPrepared(const EngineState& state,
                              const PreparedState& prepared,
                              const std::shared_ptr<const LoadedData>& data,
                              ExecutionMeter* meter);

// RunPrepared wrapped in a QueryOutcome that carries the entry's
// queries and report.
Result<QueryOutcome> ExecutePrepared(
    const EngineState& state, const PreparedState& prepared,
    const std::shared_ptr<const LoadedData>& data);

}  // namespace sqopt::detail

#endif  // SQOPT_API_ENGINE_IMPL_H_
