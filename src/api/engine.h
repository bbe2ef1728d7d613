// The sqopt public API: one entry point from query text to metered
// results.
//
//   Engine engine = Engine::Open(SchemaSource::Experiment(),
//                                ConstraintSource::Experiment())
//                       .value();
//   engine.Load(DataSource::Generated({"db", 104, 154}, /*seed=*/42));
//   QueryOutcome out = *engine.Execute(
//       "{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}");
//
// Open() wires the whole pipeline of the paper — constraint closure
// precompilation, grouping, the delayed-choice semantic optimizer, the
// conventional plan builder, and the metered executor — behind a
// single handle. The read path (Execute / Analyze / Prepare / Explain)
// is const and safe to call from any number of threads against one
// engine; Load() and the transactional write path
// (Apply) may run concurrently with it — every commit publishes a new
// immutable snapshot and in-flight readers keep theirs — while the
// catalog mutations (AddConstraint / Recompile) must be quiesced
// first. Every read entry point runs one pipeline: it prepares the
// query once (optimize or validate, then plan) and runs the prepared
// plan. Execute is transparently served from a shared plan
// cache keyed on the canonicalized query text, so repeated execution —
// the heavy-traffic case — skips parsing, retrieval, transformation,
// and planning. Concurrency comes from the callers: many threads
// calling Execute share the one cache. Prepare() returns a
// PreparedQuery handle onto the same cached state for explicit
// statement reuse.
#ifndef SQOPT_API_ENGINE_H_
#define SQOPT_API_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine_options.h"
#include "api/mutation.h"
#include "api/plan_cache.h"
#include "api/prepared_query.h"
#include "catalog/access_stats.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "constraints/constraint_catalog.h"
#include "constraints/horn_clause.h"
#include "cost/stats.h"
#include "exec/executor.h"
#include "query/query.h"
#include "query/query_printer.h"
#include "sqo/report.h"
#include "storage/object_store.h"
#include "types/value.h"
#include "workload/dbgen.h"

namespace sqopt {

namespace detail {
struct CommitRequest;
struct EngineState;
}  // namespace detail

// ---------------------------------------------------------------------
// Sources: how an Engine obtains its schema, constraints, and data.
// Each wraps a factory so Open()/Load() control construction order and
// ownership; named factories cover the built-in workloads.
// ---------------------------------------------------------------------

class SchemaSource {
 public:
  using Factory = std::function<Result<Schema>()>;

  // Implicit: pass a ready-made Schema or any callable returning one.
  SchemaSource(Schema schema);     // NOLINT(runtime/explicit)
  SchemaSource(Factory factory);   // NOLINT(runtime/explicit)

  // The paper's Figure 2.1 running-example schema.
  static SchemaSource PaperExample();
  // The §4 experiment schema (5 classes, 6 relationships).
  static SchemaSource Experiment();

  Result<Schema> Build() const;

 private:
  Factory factory_;
};

class ConstraintSource {
 public:
  using Factory =
      std::function<Result<std::vector<HornClause>>(const Schema&)>;

  ConstraintSource(Factory factory);  // NOLINT(runtime/explicit)

  static ConstraintSource None();
  // Figure 2.2's five constraints (requires SchemaSource::PaperExample).
  static ConstraintSource PaperExample();
  // The 15 experiment constraints (requires SchemaSource::Experiment).
  static ConstraintSource Experiment();
  // Pre-built clauses (ids must resolve against the engine's schema).
  static ConstraintSource FromClauses(std::vector<HornClause> clauses);
  // Textual Horn clauses, parsed against the engine's schema at Open.
  static ConstraintSource FromText(std::vector<std::string> clauses);
  // Concatenation; duplicates across parts are skipped at Open.
  static ConstraintSource Merge(std::vector<ConstraintSource> parts);

  Result<std::vector<HornClause>> Build(const Schema& schema) const;

 private:
  Factory factory_;
};

class DataSource {
 public:
  using Factory =
      std::function<Result<std::unique_ptr<ObjectStore>>(const Schema&)>;

  DataSource(Factory factory);  // NOLINT(runtime/explicit)

  // GenerateDatabase over the engine's schema; deterministic in `seed`.
  static DataSource Generated(DbSpec spec, uint64_t seed);
  // Adopts an existing store. The schema the store was built against
  // must outlive the engine and be structurally identical to the
  // engine's. One-shot: a DataSource from FromStore can be Load()ed
  // only once.
  static DataSource FromStore(std::unique_ptr<ObjectStore> store);

  Result<std::unique_ptr<ObjectStore>> Build(const Schema& schema) const;

 private:
  Factory factory_;
};

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

// Everything one query produced: the parsed and transformed forms, the
// optimization trace, the rows, and the measured execution meter.
struct QueryOutcome {
  Query original;
  Query transformed;  // == original when nothing applied / unoptimized
  OptimizationReport report;

  // Contradiction short-circuit (§4 extension): the retained predicate
  // set is unsatisfiable, so `rows` is empty and the store was never
  // touched.
  bool answered_without_database = false;

  bool executed = false;  // false for Analyze and for contradictions
  ResultSet rows;
  ExecutionMeter meter;

  // Plan-cache accounting: whether THIS query was served from a cached
  // parse/retrieval/plan, plus a snapshot of the cache counters taken
  // when the query completed. All zeros when the cache is disabled and
  // on paths that bypass it (Analyze, ExecuteUnoptimized).
  bool plan_cache_hit = false;
  PlanCacheStats plan_cache;
};

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

// What Engine::ExecuteIfCached answers: the rows and the one
// flag a server sends back, without the report and queries a full
// QueryOutcome carries.
struct CachedAnswer {
  // False: the text had no cached sequential plan and nothing ran.
  bool cached = false;
  bool answered_without_database = false;
  std::vector<std::vector<Value>> rows;
};

// ---------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------

class Engine {
 public:
  // Builds the schema, loads + precompiles the constraints (closure,
  // classification, grouping), and returns a ready engine. Duplicate
  // constraints across merged sources are skipped silently; any other
  // constraint error fails the open.
  static Result<Engine> Open(SchemaSource schema_source,
                             ConstraintSource constraint_source,
                             EngineOptions options = {});

  // Opens a persistence directory previously produced by Save() /
  // Checkpoint(): restores the schema, the precompiled constraint
  // catalog (derived rules included — no closure recomputation), the
  // store with its B-tree indexes, and the collected statistics from
  // the binary snapshot, then replays the write-ahead log's committed
  // suffix through the ordinary Apply path (constraint validation
  // included). A torn WAL tail is discarded; a record at or below the
  // snapshot's version is skipped (a checkpoint killed between rename
  // and truncate leaves exactly that); checksum or structural damage in
  // the snapshot itself fails with kCorruption. The returned engine
  // stays attached to `dir`: subsequent Apply calls append to the WAL
  // per options.serve.durability. `options` is NOT persisted — every
  // open chooses its own knobs.
  static Result<Engine> Open(const std::string& dir,
                             EngineOptions options = {});

  Engine(Engine&&) noexcept = default;
  Engine& operator=(Engine&&) noexcept = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Admin path. Load() is safe to run concurrently with the read
  // path: it publishes a complete new data snapshot and invalidates
  // the plan cache, while in-flight queries and PreparedQuery handles
  // keep executing against the snapshot they started with. The other
  // mutations below (AddConstraint / Recompile / SetOptimizerOptions)
  // still require quiescing Execute/Prepare callers first. ---

  // Attaches (or replaces) the data, collects statistics, and builds
  // the cost model (unless options.use_cost_model is false). Drops
  // every cached plan: the next Execute of any query re-parses,
  // re-retrieves, and re-plans against the new store. On a durable
  // engine a reload DETACHES the persistence directory (the on-disk
  // lineage no longer describes the data); Save() re-attaches.
  Status Load(DataSource data_source);

  // --- Durability. See DESIGN.md "Durability". ---

  // Makes this engine durable at `dir` (created if absent): writes a
  // full snapshot of the current state — schema, precompiled catalog,
  // extents, adjacency, indexes, statistics — as one atomic file plus
  // a fresh write-ahead log, and attaches the engine so every later
  // Apply is logged before it publishes. Requires Load() first.
  Status Save(const std::string& dir);

  // Folds the log into a new snapshot: writes the current state to a
  // tmp file, fsyncs, renames it over the old snapshot, fsyncs the
  // directory, and only then truncates the WAL. A kill anywhere in
  // that sequence recovers to exactly the pre- or post-checkpoint
  // state (WAL replay is version-idempotent). Requires a durable
  // engine (Save or Open(dir)).
  Status Checkpoint();

  // Directory this engine persists to; empty when purely in-memory.
  std::string persist_dir() const;

  // --- Write path. Safe to run concurrently with the read path, like
  // Load(): writers serialize among themselves on a commit lock,
  // readers keep the snapshot they pinned. ---

  // Commits `batch` transactionally against the current snapshot:
  //  * the whole batch applies to a copy-on-write clone of the store
  //    (only touched classes/relationships are copied), with B-tree
  //    indexes maintained incrementally per op;
  //  * the post-apply state is validated against the ConstraintCatalog
  //    (base clauses, on the rows/links the batch touched) BEFORE
  //    anything is published — a violating batch is rejected with a
  //    kConstraintViolation status and the visible store is untouched,
  //    as it is on any other per-op error (bad row, duplicate link...);
  //  * class/relationship statistics and histograms are recollected
  //    incrementally for the touched classes only;
  //  * the new snapshot is published atomically — every read that
  //    starts afterwards sees the whole batch, none of it before;
  //  * the plan cache is dropped only when the commit's statistics
  //    drift crosses options().serve.replan_threshold — below it,
  //    cached plans survive and execute against the new snapshot.
  // Requires Load() first. An empty batch is a no-op commit.
  //
  // Concurrent Apply calls GROUP-COMMIT: callers queue up, one becomes
  // the leader and commits every queued batch with a single WAL append
  // + fsync and a single published snapshot, the rest block on the
  // leader's outcome. Each batch keeps its own typed status — a
  // follower's kConstraintViolation (or malformed batch) rejects that
  // batch alone and never poisons its group-mates.
  Result<ApplyOutcome> Apply(const MutationBatch& batch);

  // Commits `batches` as ONE explicit commit group (the same protocol
  // concurrent Apply callers converge on, minus the queueing): batches
  // apply and validate in order against the current snapshot, the
  // survivors share one WAL append + fsync and one published snapshot,
  // and each slot of the returned vector (input order) carries that
  // batch's own outcome or typed failure. Batch i's committed version
  // is base + (number of surviving batches before it) + 1; a rejected
  // batch consumes no version. An empty span returns an empty vector.
  std::vector<Result<ApplyOutcome>> ApplyGroup(
      std::span<const MutationBatch> batches);

  // Observer for committed groups, the leader-side replication tap:
  // called after every published commit with the group's first
  // snapshot version and its surviving batches, in commit order, while
  // the commit lock is still held (so invocations are totally ordered
  // and gap-free). Fires for every commit — durable or in-memory —
  // but never during Open(dir) replay, so attaching after Open sees
  // exactly the post-recovery suffix. Pass nullptr to detach. The
  // callback must not re-enter Apply.
  using CommitListener = std::function<void(
      uint64_t first_version, const std::vector<MutationBatch>& batches)>;
  void SetCommitListener(CommitListener listener);

  // Adds one constraint and re-precompiles the catalog (closure +
  // grouping re-run; semantic constraints change rarely — the paper's
  // justification for paying this on write, not per query).
  Status AddConstraint(std::string_view constraint_text);
  Status AddConstraint(HornClause clause);

  // Re-runs precompilation with the current access statistics — e.g.
  // to let kLeastFrequentlyAccessed grouping adapt to traffic drift.
  // The overload replaces the precompile options first.
  Status Recompile();
  Status Recompile(const PrecompileOptions& precompile);

  // Replaces the optimizer knobs (tag policy, queue discipline,
  // budget, ...) without re-opening; takes effect on the next query.
  // Admin path, like the rest of this section.
  void SetOptimizerOptions(const OptimizerOptions& optimizer);

  // --- Read path: const, thread-safe. ---

  // Parse -> optimize -> plan -> execute -> meter. Requires Load().
  // Transparently served from the shared plan cache when an identical
  // (canonicalized) query was executed or prepared since the last
  // reload: a hit skips retrieval, transformation, and planning, and
  // the outcome reports plan_cache_hit = true.
  Result<QueryOutcome> Execute(std::string_view query_text) const;
  Result<QueryOutcome> Execute(const Query& query) const;

  // Serves `query_text` only when it is an exact raw-text plan-cache
  // hit whose plan runs sequentially; otherwise answers "not cached"
  // having done nothing else — no parse, no counted miss, no plan.
  // The server runs such queries on the event loop that owns the
  // connection.
  Result<CachedAnswer> ExecuteIfCached(std::string_view query_text) const;

  // Same, skipping semantic optimization (baseline side of A/B runs).
  Result<QueryOutcome> ExecuteUnoptimized(std::string_view query_text) const;
  Result<QueryOutcome> ExecuteUnoptimized(const Query& query) const;

  // Parse -> optimize only; never touches data (works with no store).
  Result<QueryOutcome> Analyze(std::string_view query_text) const;
  Result<QueryOutcome> Analyze(const Query& query) const;

  // Parse + optimize + plan once; the returned handle re-executes
  // without re-doing any of it. Shares the plan cache with Execute.
  // Without data loaded the handle holds the analysis only and is
  // never executable. The handle stays valid after the
  // engine object is destroyed (it shares ownership of the internals).
  Result<PreparedQuery> Prepare(std::string_view query_text) const;
  Result<PreparedQuery> Prepare(const Query& query) const;

  // Human-readable transformation trace + transformed query (in
  // re-parseable textual form) + the physical plan it prepared, when
  // data is loaded and the query is not provably empty.
  Result<std::string> Explain(std::string_view query_text) const;

  // Parses and validates without optimizing or executing.
  Result<Query> Parse(std::string_view query_text) const;

  // --- Introspection. ---
  const Schema& schema() const;
  const ConstraintCatalog& catalog() const;
  // The three data accessors below return null until Load() and point
  // into the CURRENT data snapshot: the pointers stay valid only until
  // the next Load() replaces it. Don't hold them across a reload —
  // re-read them instead (queries in flight are unaffected; they pin
  // their snapshot internally).
  const ObjectStore* store() const;
  bool has_data() const { return store() != nullptr; }
  const DatabaseStats* database_stats() const;
  const CostModelInterface* cost_model() const;
  // Version of the current data snapshot: 0 before the first Load, 1
  // after it, +1 per committed Apply (a reload restarts the lineage at
  // 1). Lets callers detect whether a write was published.
  uint64_t data_version() const;
  const EngineOptions& options() const;
  EngineStats stats() const;

  // Cumulative plan-cache counters (hits, misses, evictions,
  // invalidations, live entries). Safe concurrently with the read path.
  PlanCacheStats plan_cache_stats() const;

  // Snapshot of the per-class access counters (the read path updates
  // them under a lock; the snapshot is taken under the same lock, so
  // this is safe to call concurrently with Execute).
  AccessStats access_stats() const;

  // What-if drills on the access counters (admin path: not
  // synchronized with concurrent readers).
  AccessStats* mutable_access_stats();

 private:
  explicit Engine(std::shared_ptr<detail::EngineState> state)
      : state_(std::move(state)) {}

  // Shared tail of the two Execute overloads; `text` (when the query
  // arrived as text) registers the raw-text cache alias.
  Result<QueryOutcome> ExecuteParsed(const Query& query,
                                     std::optional<std::string> text) const;

  // Queues `batches` as one contiguous run of commit requests, rides
  // the leader/follower group-commit protocol (becoming leader if the
  // queue head is ours), and returns per-batch results in input order.
  // Shared tail of Apply (a group of one) and ApplyGroup.
  std::vector<Result<ApplyOutcome>> CommitThroughGroup(
      std::span<const MutationBatch> batches);

  // The commit body: applies + validates every batch of `group` in
  // order against the current snapshot, appends the survivors as one
  // WAL group record (when `log_to_wal` and attached), publishes one
  // combined snapshot, and engages every request's `result`. WAL
  // replay at Open(dir) runs it with log_to_wal=false (the record
  // being replayed IS the log). Caller holds commit_mutex.
  void CommitGroupLocked(const std::vector<detail::CommitRequest*>& group,
                         bool log_to_wal);

  std::shared_ptr<detail::EngineState> state_;
};

}  // namespace sqopt

#endif  // SQOPT_API_ENGINE_H_
