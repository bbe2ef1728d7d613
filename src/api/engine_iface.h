// The full serving surface the network layer needs from a query
// engine: execute queries, commit mutation batches, checkpoint, and
// report the snapshot version and cumulative counters. The Engine and
// the wire-speaking shard::RemoteShard both implement it, which is how
// one TCP front end (server/server.{h,cc}) serves either backend with
// no downcasts. See DESIGN.md "Replication".
#ifndef SQOPT_API_ENGINE_IFACE_H_
#define SQOPT_API_ENGINE_IFACE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "api/mutation.h"
#include "api/plan_cache.h"
#include "common/status.h"
#include "types/value.h"

namespace sqopt {

struct QueryOutcome;

// Cumulative engine counters; all reads are atomic snapshots.
struct EngineStats {
  uint64_t queries_parsed = 0;       // ParseQuery invocations
  uint64_t queries_executed = 0;     // Execute() completions
  uint64_t queries_analyzed = 0;     // Analyze() completions
  uint64_t statements_prepared = 0;  // Prepare() completions
  uint64_t prepared_executions = 0;  // PreparedQuery::Execute completions
  uint64_t contradictions = 0;       // queries answered without the DB
  uint64_t mutation_batches_applied = 0;   // committed Apply() calls
  uint64_t mutation_ops_applied = 0;       // ops inside committed batches
  // Apply() batches rejected by constraint validation specifically
  // (malformed batches — bad rows, duplicate links — are not counted).
  uint64_t mutation_batches_rejected = 0;
  // Completed Checkpoint() calls.
  uint64_t checkpoints = 0;
  // WAL records replayed by Open(dir) — the committed suffix the last
  // checkpoint had not folded in yet. One record per commit GROUP (a
  // group of concurrent Apply calls shares a record; a lone Apply is a
  // group of one).
  uint64_t wal_records_replayed = 0;
  // Full per-attribute or per-class statistics recollections on the
  // commit path: attributes the incremental patch could not absorb
  // (no stats yet, a non-finite value, a removal it cannot place) and
  // classes resynced after a commit drifted past the replan threshold.
  uint64_t stats_recollections = 0;
};

// What EngineInterface::ExecuteIfCached answers: the rows and the one
// flag a server sends back, without the report and queries a full
// QueryOutcome carries.
struct CachedAnswer {
  // False: the text had no cached sequential plan and nothing ran.
  bool cached = false;
  bool answered_without_database = false;
  std::vector<std::vector<Value>> rows;
};

class EngineInterface {
 public:
  virtual ~EngineInterface() = default;

  // Parse -> optimize -> plan -> execute -> meter; thread-safe.
  virtual Result<QueryOutcome> Execute(std::string_view query_text) const = 0;

  // Serves `query_text` only when it is an exact raw-text plan-cache
  // hit whose plan runs sequentially; otherwise answers "not cached"
  // having done nothing else — no parse, no counted miss, no plan.
  // Thread-safe. The server runs such queries on its I/O thread.
  virtual Result<CachedAnswer> ExecuteIfCached(
      std::string_view query_text) const = 0;

  // Commits one mutation batch atomically (group-commit with
  // concurrent callers where the backend supports it). Thread-safe;
  // serializes against other writers inside the backend.
  virtual Result<ApplyOutcome> Apply(const MutationBatch& batch) = 0;

  // Commits `batches` as one explicit commit group; each slot of the
  // returned vector (input order) carries that batch's own outcome or
  // typed failure. An empty span returns an empty vector.
  virtual std::vector<Result<ApplyOutcome>> ApplyGroup(
      std::span<const MutationBatch> batches) = 0;

  // Folds the WAL into a fresh snapshot. Backends without an attached
  // persistence directory return kFailedPrecondition.
  virtual Status Checkpoint() = 0;

  // Version of the current data snapshot: 0 before the first Load, 1
  // after it, +1 per committed batch. The replication protocol's
  // currency: a follower subscribes from its own data_version().
  virtual uint64_t data_version() const = 0;

  virtual EngineStats stats() const = 0;
  virtual PlanCacheStats plan_cache_stats() const = 0;

  // Whether Load() (or a durable open) attached data — the serving
  // precondition the server checks instead of poking at a store.
  virtual bool has_data() const = 0;
};

}  // namespace sqopt

#endif  // SQOPT_API_ENGINE_IFACE_H_
