#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include <filesystem>

#include "api/engine_impl.h"
#include "common/worker_pool.h"
#include "constraints/constraint_parser.h"
#include "constraints/constraint_validator.h"
#include "exec/plan_builder.h"
#include "persist/crash_point.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "query/query_parser.h"
#include "sqo/optimizer.h"
#include "workload/constraint_gen.h"
#include "workload/example_schema.h"

namespace sqopt {

// ---------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------

SchemaSource::SchemaSource(Schema schema)
    : factory_([schema = std::move(schema)]() -> Result<Schema> {
        return schema;
      }) {}

SchemaSource::SchemaSource(Factory factory) : factory_(std::move(factory)) {}

SchemaSource SchemaSource::PaperExample() {
  return SchemaSource(Factory(&BuildFigure21Schema));
}

SchemaSource SchemaSource::Experiment() {
  return SchemaSource(Factory(&BuildExperimentSchema));
}

Result<Schema> SchemaSource::Build() const {
  if (!factory_) return Status::InvalidArgument("empty SchemaSource");
  return factory_();
}

ConstraintSource::ConstraintSource(Factory factory)
    : factory_(std::move(factory)) {}

ConstraintSource ConstraintSource::None() {
  return ConstraintSource(
      [](const Schema&) -> Result<std::vector<HornClause>> {
        return std::vector<HornClause>{};
      });
}

ConstraintSource ConstraintSource::PaperExample() {
  return ConstraintSource(
      [](const Schema& schema) { return Figure22Constraints(schema); });
}

ConstraintSource ConstraintSource::Experiment() {
  return ConstraintSource(
      [](const Schema& schema) { return ExperimentConstraints(schema); });
}

ConstraintSource ConstraintSource::FromClauses(
    std::vector<HornClause> clauses) {
  return ConstraintSource(
      [clauses = std::move(clauses)](
          const Schema&) -> Result<std::vector<HornClause>> {
        return clauses;
      });
}

ConstraintSource ConstraintSource::FromText(
    std::vector<std::string> clauses) {
  return ConstraintSource(
      [texts = std::move(clauses)](
          const Schema& schema) -> Result<std::vector<HornClause>> {
        std::vector<HornClause> out;
        out.reserve(texts.size());
        for (const std::string& text : texts) {
          SQOPT_ASSIGN_OR_RETURN(HornClause clause,
                                 ParseConstraint(schema, text));
          out.push_back(std::move(clause));
        }
        return out;
      });
}

ConstraintSource ConstraintSource::Merge(std::vector<ConstraintSource> parts) {
  return ConstraintSource(
      [parts = std::move(parts)](
          const Schema& schema) -> Result<std::vector<HornClause>> {
        std::vector<HornClause> out;
        for (const ConstraintSource& part : parts) {
          SQOPT_ASSIGN_OR_RETURN(std::vector<HornClause> clauses,
                                 part.Build(schema));
          for (HornClause& clause : clauses) {
            out.push_back(std::move(clause));
          }
        }
        return out;
      });
}

Result<std::vector<HornClause>> ConstraintSource::Build(
    const Schema& schema) const {
  if (!factory_) return Status::InvalidArgument("empty ConstraintSource");
  return factory_(schema);
}

DataSource::DataSource(Factory factory) : factory_(std::move(factory)) {}

DataSource DataSource::Generated(DbSpec spec, uint64_t seed) {
  return DataSource([spec = std::move(spec), seed](const Schema& schema) {
    return GenerateDatabase(schema, spec, seed);
  });
}

DataSource DataSource::FromStore(std::unique_ptr<ObjectStore> store) {
  auto holder =
      std::make_shared<std::unique_ptr<ObjectStore>>(std::move(store));
  return DataSource(
      [holder](const Schema&) -> Result<std::unique_ptr<ObjectStore>> {
        if (*holder == nullptr) {
          return Status::FailedPrecondition(
              "DataSource::FromStore already consumed by a Load()");
        }
        return std::move(*holder);
      });
}

Result<std::unique_ptr<ObjectStore>> DataSource::Build(
    const Schema& schema) const {
  if (!factory_) return Status::InvalidArgument("empty DataSource");
  return factory_(schema);
}

// ---------------------------------------------------------------------
// Query-path helpers.
// ---------------------------------------------------------------------

namespace {

// Per-class access frequencies feed the kLeastFrequentlyAccessed
// grouping policy at the next Recompile.
void RecordAccess(const detail::EngineState& state, const Query& query) {
  std::lock_guard<std::mutex> lock(state.access_mutex);
  state.access.RecordQuery(query.classes);
}

// The engine's physical-planning knobs: serve.parallelism (0 = the
// resolved thread count) caps morsel fan-out and serve.morsel_size
// sizes the morsels.
PlanningOptions MakePlanningOptions(const detail::EngineState& state) {
  const ServeOptions& serve = state.options.serve;
  PlanningOptions opts;
  opts.max_parallelism =
      serve.parallelism == 0
          ? WorkerPool::ResolveThreads(serve.threads)
          : serve.parallelism;
  opts.morsel_size = serve.morsel_size;
  return opts;
}

Status NoDataLoaded() {
  return Status::FailedPrecondition(
      "no data loaded: call Engine::Load before Execute, or use "
      "Analyze for optimization-only runs");
}

// The one prepare pipeline: constraint retrieval + semantic
// transformation (or, with `optimize` false, validation alone) +
// physical planning, against one pinned data snapshot. It plans when
// `plan` is set, data is pinned and the result is not provably empty;
// Analyze alone passes `plan` false, to stay optimization-only. The
// result is what PreparedQuery handles and plan-cache entries hold.
Result<std::shared_ptr<detail::PreparedState>> BuildPrepared(
    const detail::EngineState& state,
    std::shared_ptr<const detail::LoadedData> data, const Query& query,
    bool optimize, bool plan = true) {
  auto prepared = std::make_shared<detail::PreparedState>();
  prepared->original = query;
  if (optimize) {
    SemanticOptimizer optimizer(
        &state.schema, &state.catalog,
        data == nullptr ? nullptr : data->cost_model.get(),
        state.options.optimizer);
    SQOPT_ASSIGN_OR_RETURN(OptimizeResult opt, optimizer.Optimize(query));
    prepared->transformed = std::move(opt.query);
    prepared->report = std::move(opt.report);
    prepared->empty_result = opt.empty_result;
  } else {
    SQOPT_RETURN_IF_ERROR(ValidateQuery(state.schema, query));
    prepared->transformed = query;
  }
  prepared->data = std::move(data);
  if (plan && prepared->data != nullptr && !prepared->empty_result) {
    SQOPT_ASSIGN_OR_RETURN(prepared->plan,
                           BuildPlan(state.schema, prepared->data->db_stats,
                                     prepared->transformed,
                                     MakePlanningOptions(state)));
  }
  return prepared;
}

// The one plan-cache path (Execute and Prepare). `key` is the query
// text as the caller sent it, or the printed form of a caller's Query,
// which then arrives as `query`. The key is looked up once; on a miss
// `query` (or, when it is null, the parse of `key`) is built and
// published under `key` and `epoch`. With no data loaded nothing is
// looked up or cached, so data-less handles are never cached: a later
// Execute must not hit a planless entry.
Result<std::shared_ptr<const detail::PreparedState>> PrepareCached(
    const detail::EngineState& state,
    std::shared_ptr<const detail::LoadedData> data, uint64_t epoch,
    std::string_view key, const Query* query, bool* hit) {
  const bool cacheable = data != nullptr;
  std::shared_ptr<const detail::PreparedState> entry;
  if (cacheable) entry = state.plan_cache.Lookup(key);
  *hit = entry != nullptr;
  if (*hit) return entry;
  std::optional<Query> parsed;
  if (query == nullptr) {
    state.queries_parsed.fetch_add(1, std::memory_order_relaxed);
    SQOPT_ASSIGN_OR_RETURN(parsed, ParseQuery(state.schema, key));
    query = &*parsed;
  }
  SQOPT_ASSIGN_OR_RETURN(entry, BuildPrepared(state, std::move(data), *query,
                                              /*optimize=*/true));
  if (cacheable) state.plan_cache.Insert(std::string(key), entry, epoch);
  return entry;
}

// The cache key of a caller's Query: its printed form. The printer
// resolves schema ids, so a malformed hand-built Query is rejected
// first (ParseQuery output is always valid).
Result<std::string> PrintedKey(const Schema& schema, const Query& query) {
  SQOPT_RETURN_IF_ERROR(ValidateQuery(schema, query));
  return PrintQuery(schema, query);
}

// Analyze and Explain: optimize against the current snapshot, outside
// the plan cache. Nothing runs afterwards, so a contradiction counts
// here.
Result<std::shared_ptr<detail::PreparedState>> PrepareForAnalysis(
    const detail::EngineState& state, const Query& query, bool plan) {
  RecordAccess(state, query);
  SQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<detail::PreparedState> prepared,
      BuildPrepared(state, state.data_snapshot(), query, /*optimize=*/true,
                    plan));
  if (prepared->empty_result) {
    state.contradictions.fetch_add(1, std::memory_order_relaxed);
  }
  return prepared;
}

}  // namespace

namespace detail {

Result<ResultSet> RunPrepared(const EngineState& state,
                              const PreparedState& prepared,
                              const std::shared_ptr<const LoadedData>& data,
                              ExecutionMeter* meter) {
  if (prepared.empty_result) {
    state.contradictions.fetch_add(1, std::memory_order_relaxed);
    return ResultSet{};
  }
  if (!prepared.plan.has_value()) {
    return Status::FailedPrecondition(
        "prepared without data: Engine::Load must run before Prepare "
        "for the handle to be executable");
  }
  // A plan implies a pinned snapshot. Run on the CURRENT one when it
  // descends from the same Load, so cached plans and prepared handles
  // observe committed Apply() mutations; across a reload (new lineage)
  // keep the snapshot the plan was built on.
  const LoadedData& exec_data =
      data != nullptr && data->lineage == prepared.data->lineage
          ? *data
          : *prepared.data;
  // Parallel plans borrow the engine's morsel pool.
  ExecContext context;
  if (prepared.plan->parallelism > 1) context.pool = state.GetMorselPool();
  return ExecutePlan(*exec_data.store, *prepared.plan, meter, context);
}

Result<QueryOutcome> ExecutePrepared(
    const EngineState& state, const PreparedState& prepared,
    const std::shared_ptr<const LoadedData>& data) {
  QueryOutcome out;
  out.original = prepared.original;
  out.transformed = prepared.transformed;
  out.report = prepared.report;
  out.answered_without_database = prepared.empty_result;
  SQOPT_ASSIGN_OR_RETURN(out.rows,
                         RunPrepared(state, prepared, data, &out.meter));
  out.executed = !prepared.empty_result;
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------
// Engine: lifecycle + admin path.
// ---------------------------------------------------------------------

Result<Engine> Engine::Open(SchemaSource schema_source,
                            ConstraintSource constraint_source,
                            EngineOptions options) {
  SQOPT_ASSIGN_OR_RETURN(Schema schema, schema_source.Build());
  auto state = std::make_shared<detail::EngineState>(std::move(schema),
                                                     std::move(options));
  SQOPT_ASSIGN_OR_RETURN(std::vector<HornClause> clauses,
                         constraint_source.Build(state->schema));
  for (HornClause& clause : clauses) {
    Status s = state->catalog.AddConstraint(std::move(clause));
    // Merged sources (e.g. integrity + mined rules) may overlap; a
    // duplicate is not an error at this level.
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  }
  SQOPT_RETURN_IF_ERROR(
      state->catalog.Precompile(&state->access, state->options.precompile));
  return Engine(std::move(state));
}

Status Engine::Load(DataSource data_source) {
  detail::EngineState& state = *state_;
  // Snapshot producers (Load and Apply) serialize on the commit lock so
  // a reload can never interleave with a half-built commit.
  std::lock_guard<std::mutex> commit_lock(state.commit_mutex);
  SQOPT_ASSIGN_OR_RETURN(std::unique_ptr<ObjectStore> store,
                         data_source.Build(state.schema));
  if (store == nullptr) {
    return Status::InvalidArgument("DataSource produced no store");
  }
  if (store->schema().num_classes() != state.schema.num_classes() ||
      store->schema().num_relationships() !=
          state.schema.num_relationships()) {
    return Status::InvalidArgument(
        "store schema does not match the engine's schema");
  }
  // Build the complete snapshot off to the side, publish it in one
  // pointer swap, THEN invalidate the plan cache. The order matters:
  // once the epoch moves, any in-flight miss that planned against the
  // old snapshot fails its epoch check and is never cached, so a
  // cached plan can never outlive its store's tenure.
  auto data = std::make_shared<detail::LoadedData>();
  data->store = std::shared_ptr<const ObjectStore>(std::move(store));
  data->db_stats = CollectStats(*data->store);
  data->cost_model =
      std::make_unique<CostModel>(&state.schema, &data->db_stats);
  data->version = 1;
  data->lineage = ++state.lineages;
  {
    std::lock_guard<std::mutex> lock(state.data_mutex);
    state.data = std::move(data);
  }
  // A wholesale data replacement invalidates the on-disk lineage:
  // detach rather than silently let the WAL describe data that no
  // longer exists. Save() re-attaches.
  state.wal.reset();
  state.persist_dir.clear();
  state.plan_cache.Invalidate();
  return Status::OK();
}

Result<Engine> Engine::Open(const std::string& dir, EngineOptions options) {
  namespace fs = std::filesystem;
  SQOPT_ASSIGN_OR_RETURN(
      persist::SnapshotReader snapshot,
      persist::SnapshotReader::Open(
          (fs::path(dir) / persist::kSnapshotFileName).string()));

  // Rebuild the schema first: the catalog and the store both point into
  // it, and EngineState's heap placement gives it a stable address.
  SQOPT_ASSIGN_OR_RETURN(Schema schema, snapshot.ReadSchema());
  auto state = std::make_shared<detail::EngineState>(std::move(schema),
                                                     std::move(options));
  SQOPT_RETURN_IF_ERROR(snapshot.RestoreCatalog(&state->catalog));

  auto data = std::make_shared<detail::LoadedData>();
  SQOPT_ASSIGN_OR_RETURN(std::unique_ptr<ObjectStore> store,
                         snapshot.RestoreStore(&state->schema));
  data->store = std::shared_ptr<const ObjectStore>(std::move(store));
  SQOPT_ASSIGN_OR_RETURN(data->db_stats, snapshot.RestoreStats());
  data->cost_model =
      std::make_unique<CostModel>(&state->schema, &data->db_stats);
  data->version = snapshot.data_version();
  data->lineage = ++state->lineages;
  {
    std::lock_guard<std::mutex> lock(state->data_mutex);
    state->data = std::move(data);
  }

  // Replay the log's committed suffix through the ordinary Apply path.
  // Records at or below the snapshot's version were already folded in
  // by the checkpoint that wrote it (idempotence); a version gap means
  // the log does not belong to this snapshot.
  const std::string wal_path =
      (fs::path(dir) / persist::kWalFileName).string();
  SQOPT_ASSIGN_OR_RETURN(persist::WalReadResult log,
                         persist::ReadWal(wal_path));
  Engine engine(std::move(state));
  for (const persist::WalRecord& record : log.records) {
    if (record.batches.empty()) continue;
    const uint64_t current = engine.data_version();
    const persist::RecordPlace place = persist::PlaceRecord(current, record);
    if (place == persist::RecordPlace::kBehind) continue;
    if (place == persist::RecordPlace::kGap) {
      return Status::Corruption(
          "WAL version gap: snapshot at " + std::to_string(current) +
          ", next record covers [" +
          std::to_string(record.first_version) + ", " +
          std::to_string(record.last_version()) + "]");
    }
    // Replay the whole group through the ordinary commit path
    // (constraint validation included) — every batch was validated
    // when it was logged, so each must commit again. The WAL is
    // attached only below and no commit listener can be set yet, so
    // the replayed group is neither logged again nor shipped.
    std::vector<Result<ApplyOutcome>> replayed =
        engine.ApplyGroup(record.batches);
    for (size_t i = 0; i < replayed.size(); ++i) {
      if (!replayed[i].ok()) {
        return Status(replayed[i].status().code(),
                      "WAL replay of version " +
                          std::to_string(record.first_version + i) +
                          " failed: " + replayed[i].status().message());
      }
    }
    engine.state_->wal_records_replayed.fetch_add(
        1, std::memory_order_relaxed);
  }

  // Attach for appending, discarding any torn tail first so the next
  // record starts on a clean frame boundary.
  SQOPT_ASSIGN_OR_RETURN(engine.state_->wal,
                         persist::WalWriter::Open(wal_path, log.valid_bytes));
  engine.state_->persist_dir = dir;
  return engine;
}

Status Engine::Save(const std::string& dir) {
  detail::EngineState& state = *state_;
  std::lock_guard<std::mutex> commit_lock(state.commit_mutex);
  std::shared_ptr<const detail::LoadedData> data = state.data_snapshot();
  if (data == nullptr) {
    return Status::FailedPrecondition(
        "no data loaded: call Engine::Load before Save");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory '" + dir +
                            "': " + ec.message());
  }
  // Kill any log already in the directory BEFORE the new snapshot
  // becomes visible — the reverse order would let a crash inside Save
  // pair the fresh snapshot with a stale WAL from a previous lineage,
  // whose gap-free version numbers would replay foreign batches at
  // the next Open. With this order a crash leaves the OLD snapshot
  // and no log: a clean committed prefix of the directory's previous
  // occupant.
  const std::string wal_path =
      (fs::path(dir) / persist::kWalFileName).string();
  if (fs::remove(wal_path, ec)) {
    SQOPT_RETURN_IF_ERROR(persist::FsyncDirOf(wal_path));
  }
  SQOPT_RETURN_IF_ERROR(persist::WriteSnapshotFile(
      (fs::path(dir) / persist::kSnapshotFileName).string(), state.schema,
      state.catalog, *data->store, data->db_stats, data->version));
  SQOPT_ASSIGN_OR_RETURN(std::unique_ptr<persist::WalWriter> wal,
                         persist::WalWriter::Open(wal_path));
  SQOPT_RETURN_IF_ERROR(wal->Truncate(/*fsync=*/true));
  state.wal = std::move(wal);
  state.persist_dir = dir;
  return Status::OK();
}

Status Engine::Checkpoint() {
  detail::EngineState& state = *state_;
  std::lock_guard<std::mutex> commit_lock(state.commit_mutex);
  if (state.wal == nullptr) {
    return Status::FailedPrecondition(
        "engine is not durable: call Save(dir) or Open(dir) first");
  }
  std::shared_ptr<const detail::LoadedData> data = state.data_snapshot();
  // The snapshot lands via tmp-write + fsync + rename (atomic replace);
  // only once it is durably in place may the log shrink. Between the
  // rename and the truncate the WAL still holds records the snapshot
  // already folded in — recovery skips them by version.
  SQOPT_RETURN_IF_ERROR(persist::WriteSnapshotFile(
      (std::filesystem::path(state.persist_dir) /
       persist::kSnapshotFileName)
          .string(),
      state.schema, state.catalog, *data->store, data->db_stats,
      data->version));
  persist::MaybeCrash("checkpoint_post_rename");
  SQOPT_RETURN_IF_ERROR(state.wal->Truncate(/*fsync=*/true));
  persist::MaybeCrash("checkpoint_post_truncate");
  state.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::string Engine::persist_dir() const {
  std::lock_guard<std::mutex> lock(state_->commit_mutex);
  return state_->persist_dir;
}

namespace {

// One staged insert's resolved identity: Apply checks handles against
// the class the referencing op expects, so a handle can never silently
// name a row of a different class.
struct StagedInsert {
  ClassId class_id = kInvalidClass;
  int64_t row = -1;
};

// One attribute-value change a committed op caused, captured for
// incremental statistics maintenance: `removed` is the pre-image (for
// updates and deletes), `added` the post-image (updates and inserts).
struct AttrDelta {
  AttrRef ref;
  std::optional<Value> removed;
  std::optional<Value> added;
};

// Applies one staged op to the writable clone, resolving pending-insert
// handles and recording the footprint the validator will check plus
// the attribute deltas incremental stats maintenance consumes.
Status ApplyOp(const Schema& schema, ObjectStore& store, const Mutation& op,
               std::vector<StagedInsert>* inserted,
               MutationFootprint* footprint, std::vector<AttrDelta>* deltas,
               ApplyOutcome* out) {
  auto resolve = [&](int64_t row,
                     ClassId expected_class) -> Result<int64_t> {
    if (row >= 0) return row;
    size_t k = static_cast<size_t>(-1 - row);
    if (k >= inserted->size()) {
      return Status::InvalidArgument(
          "pending-insert handle " + std::to_string(row) +
          " does not name an earlier insert of this batch");
    }
    if ((*inserted)[k].class_id != expected_class) {
      return Status::InvalidArgument(
          "pending-insert handle " + std::to_string(row) + " names a '" +
          schema.object_class((*inserted)[k].class_id).name +
          "' but is used as a row of '" +
          schema.object_class(expected_class).name + "'");
    }
    return (*inserted)[k].row;
  };
  switch (op.kind) {
    case Mutation::Kind::kInsert: {
      SQOPT_ASSIGN_OR_RETURN(int64_t row,
                             store.Insert(op.class_id, op.object));
      inserted->push_back({op.class_id, row});
      footprint->touched_rows[op.class_id].push_back(row);
      const Extent& extent = store.extent(op.class_id);
      for (AttrId attr_id : schema.LayoutOf(op.class_id)) {
        AttrDelta d;
        d.ref = {op.class_id, attr_id};
        d.added = extent.ValueAt(row, attr_id);
        deltas->push_back(std::move(d));
      }
      ++out->inserts;
      return Status::OK();
    }
    case Mutation::Kind::kUpdate: {
      SQOPT_ASSIGN_OR_RETURN(int64_t row, resolve(op.row, op.class_id));
      AttrDelta d;
      d.ref = {op.class_id, op.attr_id};
      const Extent& extent = store.extent(op.class_id);
      if (extent.IsLive(row) && extent.SlotOf(op.attr_id) >= 0) {
        d.removed = extent.ValueAt(row, op.attr_id);
      }
      SQOPT_RETURN_IF_ERROR(
          store.UpdateAttribute(op.class_id, row, op.attr_id, op.value));
      d.added = op.value;
      deltas->push_back(std::move(d));
      footprint->touched_rows[op.class_id].push_back(row);
      ++out->updates;
      return Status::OK();
    }
    case Mutation::Kind::kDelete: {
      SQOPT_ASSIGN_OR_RETURN(int64_t row, resolve(op.row, op.class_id));
      const Extent& extent = store.extent(op.class_id);
      std::vector<AttrDelta> removed;
      if (extent.IsLive(row)) {
        for (AttrId attr_id : schema.LayoutOf(op.class_id)) {
          AttrDelta d;
          d.ref = {op.class_id, attr_id};
          d.removed = extent.ValueAt(row, attr_id);
          removed.push_back(std::move(d));
        }
      }
      SQOPT_RETURN_IF_ERROR(store.Delete(op.class_id, row));
      for (AttrDelta& d : removed) deltas->push_back(std::move(d));
      ++out->deletes;
      return Status::OK();
    }
    case Mutation::Kind::kLink: {
      const Relationship& rel = schema.relationship(op.rel_id);
      SQOPT_ASSIGN_OR_RETURN(int64_t row_a, resolve(op.row_a, rel.a));
      SQOPT_ASSIGN_OR_RETURN(int64_t row_b, resolve(op.row_b, rel.b));
      SQOPT_RETURN_IF_ERROR(store.Link(op.rel_id, row_a, row_b));
      footprint->new_links.push_back({op.rel_id, row_a, row_b});
      ++out->links;
      return Status::OK();
    }
    case Mutation::Kind::kUnlink: {
      const Relationship& rel = schema.relationship(op.rel_id);
      SQOPT_ASSIGN_OR_RETURN(int64_t row_a, resolve(op.row_a, rel.a));
      SQOPT_ASSIGN_OR_RETURN(int64_t row_b, resolve(op.row_b, rel.b));
      SQOPT_RETURN_IF_ERROR(store.Unlink(op.rel_id, row_a, row_b));
      ++out->unlinks;
      return Status::OK();
    }
  }
  return Status::Internal("unknown mutation kind");
}

}  // namespace

Result<ApplyOutcome> Engine::Apply(const MutationBatch& batch) {
  std::vector<Result<ApplyOutcome>> results =
      CommitThroughGroup(std::span<const MutationBatch>(&batch, 1));
  return std::move(results[0]);
}

std::vector<Result<ApplyOutcome>> Engine::ApplyGroup(
    std::span<const MutationBatch> batches) {
  return CommitThroughGroup(batches);
}

std::vector<Result<ApplyOutcome>> Engine::CommitThroughGroup(
    std::span<const MutationBatch> batches) {
  if (batches.empty()) return {};
  detail::EngineState& state = *state_;

  // Stack-owned requests: this thread blocks below until every one is
  // done, so queued pointers never dangle.
  std::vector<detail::CommitRequest> requests(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    requests[i].batch = &batches[i];
  }
  auto all_done = [&] {
    for (const detail::CommitRequest& r : requests) {
      if (!r.done) return false;
    }
    return true;
  };

  std::unique_lock<std::mutex> lock(state.group_mutex);
  // One contiguous push under one lock hold: a leader's whole-queue
  // sweep therefore takes this caller's requests all-or-nothing, and
  // `all_done` flips atomically from its perspective.
  for (detail::CommitRequest& r : requests) {
    state.commit_queue.push_back(&r);
  }
  for (;;) {
    state.group_cv.wait(lock, [&] {
      return all_done() ||
             (!state.group_leader_active && !state.commit_queue.empty() &&
              state.commit_queue.front() == &requests[0]);
    });
    if (all_done()) break;

    // Leadership: sweep everything queued so far into one group and
    // commit it. The queue is released (and re-fillable by newcomers)
    // while the commit runs; group_leader_active keeps a second leader
    // from starting until this group publishes.
    state.group_leader_active = true;
    std::vector<detail::CommitRequest*> group(state.commit_queue.begin(),
                                              state.commit_queue.end());
    state.commit_queue.clear();
    lock.unlock();
    {
      std::lock_guard<std::mutex> commit_lock(state.commit_mutex);
      CommitGroupLocked(group);
    }
    lock.lock();
    state.group_leader_active = false;
    for (detail::CommitRequest* r : group) {
      r->done = true;
    }
    state.group_cv.notify_all();
  }
  lock.unlock();

  std::vector<Result<ApplyOutcome>> results;
  results.reserve(requests.size());
  for (detail::CommitRequest& r : requests) {
    results.push_back(std::move(*r.result));
  }
  return results;
}

void Engine::CommitGroupLocked(
    const std::vector<detail::CommitRequest*>& group) {
  detail::EngineState& state = *state_;
  std::shared_ptr<const detail::LoadedData> base = state.data_snapshot();
  if (base == nullptr) {
    // Not counted as rejections: mutation_batches_rejected means
    // "failed CONSTRAINT validation", and nothing was validated here.
    for (detail::CommitRequest* req : group) {
      req->result = Status::FailedPrecondition(
          "no data loaded: call Engine::Load before Apply");
    }
    return;
  }

  // Per-request id validation (the single class/relationship id
  // validation site — ApplyOp relies on it) and the drift inputs: ops
  // per touched class and relationship. A delete touches every
  // relationship of its class (cascading unlink), so those enter
  // `rel_ops` too, with no ops of their own.
  struct PendingCommit {
    detail::CommitRequest* req = nullptr;
    std::unordered_map<ClassId, int64_t> class_ops;
    std::unordered_map<RelId, int64_t> rel_ops;
    // A request leaves the group (excluded) the moment its result is
    // decided without a commit: malformed ids, per-op failure, or a
    // constraint violation. Survivors commit together.
    bool excluded = false;
    ApplyOutcome out;
    std::vector<StagedInsert> staged;
    std::vector<AttrDelta> deltas;
  };
  auto valid_class = [&](ClassId id) {
    return id >= 0 && id < static_cast<ClassId>(state.schema.num_classes());
  };
  std::vector<PendingCommit> pending(group.size());
  for (size_t g = 0; g < group.size(); ++g) {
    PendingCommit& pc = pending[g];
    pc.req = group[g];
    const MutationBatch& batch = *pc.req->batch;
    if (batch.empty()) {  // no-op commit: nothing published, no version
      ApplyOutcome out;
      out.snapshot_version = base->version;
      out.group_size = 0;
      pc.req->result = std::move(out);
      pc.excluded = true;
      continue;
    }
    for (const Mutation& op : batch.ops()) {
      if (pc.excluded) break;
      switch (op.kind) {
        case Mutation::Kind::kInsert:
        case Mutation::Kind::kUpdate:
        case Mutation::Kind::kDelete:
          if (!valid_class(op.class_id)) {
            pc.req->result =
                Status::InvalidArgument("mutation names an unknown class");
            pc.excluded = true;
            break;
          }
          ++pc.class_ops[op.class_id];
          if (op.kind == Mutation::Kind::kDelete) {
            for (RelId rel : state.schema.RelationshipsOf(op.class_id)) {
              pc.rel_ops.try_emplace(rel, 0);
            }
          }
          break;
        case Mutation::Kind::kLink:
        case Mutation::Kind::kUnlink:
          if (op.rel_id < 0 ||
              op.rel_id >=
                  static_cast<RelId>(state.schema.num_relationships())) {
            pc.req->result = Status::InvalidArgument(
                "mutation names an unknown relationship");
            pc.excluded = true;
            break;
          }
          ++pc.rel_ops[op.rel_id];
          break;
      }
    }
  }

  // Apply + validate every surviving batch, IN SUBMISSION ORDER,
  // against one shared clone. A failure anywhere decides that one
  // request's result, excludes it, and restarts the loop on a fresh
  // clone — the earlier batches re-apply identically (the store is
  // deterministic and an excluded batch came after them), so the final
  // state is exactly the sequential-Apply state in which the failed
  // batch left the store untouched. The loop terminates: every restart
  // excludes at least one request. The clone shares everything with
  // the base snapshot; the ops copy only the segments, relationship
  // chunks and index paths they write.
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::time_point from, Clock::time_point to) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
  };
  uint64_t clone_micros = 0;
  uint64_t apply_micros = 0;
  std::unique_ptr<ObjectStore> next;
  std::vector<PendingCommit*> survivors;
  for (;;) {
    survivors.clear();
    for (PendingCommit& pc : pending) {
      if (!pc.excluded) survivors.push_back(&pc);
    }
    if (survivors.empty()) return;  // every batch decided without commit

    const auto clone_start = Clock::now();
    next = base->store->CloneForWrite();
    const auto apply_start = Clock::now();
    clone_micros += micros(clone_start, apply_start);
    bool restart = false;
    for (PendingCommit* pc : survivors) {
      pc->out = ApplyOutcome();
      pc->staged.clear();
      pc->deltas.clear();
      MutationFootprint footprint;
      const MutationBatch& batch = *pc->req->batch;
      for (size_t i = 0; i < batch.ops().size(); ++i) {
        Status s = ApplyOp(state.schema, *next, batch.ops()[i],
                           &pc->staged, &footprint, &pc->deltas, &pc->out);
        if (!s.ok()) {
          pc->req->result = Status(
              s.code(),
              "mutation #" + std::to_string(i) + ": " + s.message());
          pc->excluded = true;
          restart = true;
          break;
        }
      }
      if (restart) break;

      // Validate this batch's own footprint now, against the state its
      // predecessors left — the same state a sequential Apply would
      // have validated against. A violation rejects THIS batch alone.
      ValidationStats vstats;
      Status valid = ValidateMutations(*next, state.catalog, footprint,
                                       &vstats);
      pc->out.constraint_checks = vstats.clauses_checked;
      if (!valid.ok()) {
        state.mutation_batches_rejected.fetch_add(
            1, std::memory_order_relaxed);
        pc->req->result = std::move(valid);
        pc->excluded = true;
        restart = true;
        break;
      }
    }
    apply_micros += micros(apply_start, Clock::now());
    if (!restart) break;
  }

  // Write-ahead: the surviving batches reach the log as ONE group
  // record (and, per DurabilityOptions, the disk — one fsync) BEFORE
  // anything is published. A failed append aborts the whole group with
  // the store untouched; a crash after the append but before the
  // publish is recovered by replay — the record carries the version
  // range this group will publish as, so recovery lands on the
  // identical state, whole group or none (one CRC frame).
  //
  // The record body is encoded once, and only when something takes it:
  // the WAL frames these bytes and the replication tap ships them.
  uint64_t wal_micros = 0;
  uint64_t fsync_micros = 0;
  const auto wal_start = Clock::now();
  std::shared_ptr<const std::string> record;
  if (state.wal != nullptr || state.commit_listener) {
    std::vector<const MutationBatch*> batches;
    batches.reserve(survivors.size());
    for (PendingCommit* pc : survivors) batches.push_back(pc->req->batch);
    record = std::make_shared<const std::string>(
        persist::EncodeWalRecordPayload(base->version + 1, batches));
  }
  if (state.wal != nullptr) {
    Status appended = state.wal->Append(
        *record, state.options.serve.durability.fsync, &fsync_micros);
    wal_micros = micros(wal_start, Clock::now());
    if (!appended.ok()) {
      for (PendingCommit* pc : survivors) pc->req->result = appended;
      return;
    }
  }
  persist::MaybeCrash("group_post_wal");

  // Statistics: start from the previous snapshot's and fold in the
  // group's effects. Cardinalities are exact (recounted from the
  // clone). Attribute stats are patched incrementally from the ops'
  // value deltas — histogram buckets updated in place (the range
  // widening to take values beyond it), min/max extended on adds, and
  // the distinct count bumped by one for an added value strictly
  // beyond the current min or max. That bump is exact: min/max only go
  // stale on removals, and then only outward, so a value beyond them
  // is beyond every live value. A full per-attribute recollection runs
  // only where a patch cannot absorb the change (no histogram yet, a
  // non-finite value, a removal the histogram cannot place). Distinct
  // counts and min/max shrinkage on removals are left stale by design:
  // they feed cost estimates, not answers, and the threshold-crossing
  // full recollect below resyncs them whenever the data drifts enough
  // to matter.
  const auto stats_start = Clock::now();
  auto data = std::make_shared<detail::LoadedData>();
  data->db_stats = base->db_stats;

  // Touched classes and relationships, with the group's ops on each.
  std::map<ClassId, int64_t> class_ops;
  std::map<RelId, int64_t> rel_ops;
  for (PendingCommit* pc : survivors) {
    for (const auto& [cid, n] : pc->class_ops) class_ops[cid] += n;
    for (const auto& [rid, n] : pc->rel_ops) rel_ops[rid] += n;
  }

  // Drift: the largest fraction of any touched class's rows (or
  // relationship's pairs) this group changed — one op changes one row,
  // and a delete's cascaded unlinks show up in the pair delta.
  double stats_drift = 0.0;
  auto drift = [](int64_t changed, int64_t before) {
    return static_cast<double>(changed) /
           static_cast<double>(std::max<int64_t>(1, before));
  };
  for (const auto& [cid, ops] : class_ops) {
    stats_drift = std::max(
        stats_drift, drift(ops, base->store->NumLiveObjects(cid)));
  }
  for (const auto& [rid, ops] : rel_ops) {
    int64_t before = base->store->NumPairs(rid);
    int64_t delta = next->NumPairs(rid) - before;
    int64_t changed = std::max(ops, delta < 0 ? -delta : delta);
    stats_drift = std::max(stats_drift, drift(changed, before));
  }

  const bool resync = stats_drift >= kReplanThreshold;
  if (resync) {
    // The same commits that will drop the plan cache also earn a full
    // recollection: cheap commits keep the incremental path, drifting
    // ones pay to resync the approximations above.
    for (const auto& [cid, ops] : class_ops) {
      CollectClassStats(*next, cid, &data->db_stats);
    }
    state.stats_recollections.fetch_add(class_ops.size(),
                                        std::memory_order_relaxed);
  } else {
    for (const auto& [cid, ops] : class_ops) {
      data->db_stats.SetClassCardinality(cid, next->NumLiveObjects(cid));
    }
    std::set<AttrRef> dirty;
    for (PendingCommit* pc : survivors) {
      for (const AttrDelta& d : pc->deltas) {
        if (dirty.count(d.ref) > 0) continue;
        AttrStatsData* stats = data->db_stats.MutableAttrStats(d.ref);
        if (stats == nullptr) {
          dirty.insert(d.ref);
          continue;
        }
        if (d.removed.has_value() && d.removed->is_numeric() &&
            !stats->histogram.empty() &&
            !stats->histogram.Remove(d.removed->AsDouble())) {
          dirty.insert(d.ref);
          continue;
        }
        if (d.added.has_value() && d.added->is_numeric()) {
          bool beyond = false;
          if (stats->min.has_value() && d.added.value() < *stats->min) {
            stats->min = d.added;
            beyond = true;
          }
          if (stats->max.has_value() && *stats->max < d.added.value()) {
            stats->max = d.added;
            beyond = true;
          }
          if (beyond && stats->distinct_values > 0) {
            ++stats->distinct_values;
          }
          if (!stats->histogram.Add(d.added->AsDouble())) {
            dirty.insert(d.ref);
          }
        }
      }
    }
    for (const AttrRef& ref : dirty) {
      CollectAttrStats(*next, ref, &data->db_stats);
    }
    state.stats_recollections.fetch_add(dirty.size(),
                                        std::memory_order_relaxed);
  }
  for (const auto& [rid, ops] : rel_ops) {
    CollectRelationshipStats(*next, rid, &data->db_stats);
  }

  data->store = std::shared_ptr<const ObjectStore>(std::move(next));
  data->cost_model =
      std::make_unique<CostModel>(&state.schema, &data->db_stats);
  data->version = base->version + survivors.size();
  data->lineage = base->lineage;

  const bool invalidated = resync;
  size_t group_ops = 0;
  for (size_t i = 0; i < survivors.size(); ++i) {
    PendingCommit* pc = survivors[i];
    pc->out.snapshot_version = base->version + i + 1;
    pc->out.inserted_rows.reserve(pc->staged.size());
    for (const StagedInsert& ins : pc->staged) {
      pc->out.inserted_rows.push_back(ins.row);
    }
    pc->out.stats_drift = stats_drift;
    pc->out.plan_cache_invalidated = invalidated;
    pc->out.group_size = survivors.size();
    pc->out.clone_micros = clone_micros;
    pc->out.apply_micros = apply_micros;
    pc->out.wal_micros = wal_micros;
    pc->out.fsync_micros = fsync_micros;
    group_ops += pc->req->batch->size();
  }

  // Publish, then (maybe) invalidate — same order as Load, for the
  // same epoch-race reason.
  {
    std::lock_guard<std::mutex> lock(state.data_mutex);
    state.data = std::move(data);
  }
  if (invalidated) {
    state.plan_cache.Invalidate();
  }
  state.mutation_batches_applied.fetch_add(survivors.size(),
                                           std::memory_order_relaxed);
  state.mutation_ops_applied.fetch_add(group_ops,
                                       std::memory_order_relaxed);
  // Drop the replaced snapshot. Unless a reader still pins it, this
  // frees the segments, chunks and index nodes the group replaced.
  const uint64_t base_version = base->version;
  const auto release_start = Clock::now();
  base.reset();
  const auto release_end = Clock::now();
  const uint64_t stats_micros = micros(stats_start, release_start);
  const uint64_t release_micros = micros(release_start, release_end);
  for (PendingCommit* pc : survivors) {
    pc->out.stats_micros = stats_micros;
    pc->out.release_micros = release_micros;
  }

  // Replication tap: the published group, in commit order, gap-free
  // (we still hold commit_mutex). Independent of WAL attachment so
  // in-memory leaders replicate too.
  if (state.commit_listener) {
    state.commit_listener(base_version + 1, base_version + survivors.size(),
                          std::move(record));
  }

  for (PendingCommit* pc : survivors) {
    pc->req->result = std::move(pc->out);
  }
}

Status Engine::AddConstraint(std::string_view constraint_text) {
  SQOPT_ASSIGN_OR_RETURN(HornClause clause,
                         ParseConstraint(state_->schema, constraint_text));
  return AddConstraint(std::move(clause));
}

Status Engine::AddConstraint(HornClause clause) {
  SQOPT_RETURN_IF_ERROR(state_->catalog.AddConstraint(std::move(clause)));
  return Recompile();
}

Status Engine::Recompile() {
  SQOPT_RETURN_IF_ERROR(state_->catalog.Precompile(
      &state_->access, state_->options.precompile));
  // Cached plans embed the retrieval + transformation the old catalog
  // produced; drop them.
  state_->plan_cache.Invalidate();
  return Status::OK();
}

Status Engine::Recompile(const PrecompileOptions& precompile) {
  state_->options.precompile = precompile;
  return Recompile();
}

void Engine::SetCommitListener(CommitListener listener) {
  // Same lock CommitGroupLocked holds while invoking it: attaching or
  // detaching never races a commit in flight.
  std::lock_guard<std::mutex> lock(state_->commit_mutex);
  state_->commit_listener = std::move(listener);
}

void Engine::SetOptimizerOptions(const OptimizerOptions& optimizer) {
  state_->options.optimizer = optimizer;
  // Plans cached under the old knobs (tag policy, budget, ...) no
  // longer reflect what a fresh optimization would produce.
  state_->plan_cache.Invalidate();
}

// ---------------------------------------------------------------------
// Engine: read path.
// ---------------------------------------------------------------------

Result<Query> Engine::Parse(std::string_view query_text) const {
  state_->queries_parsed.fetch_add(1, std::memory_order_relaxed);
  return ParseQuery(state_->schema, query_text);
}

Result<QueryOutcome> Engine::Execute(std::string_view query_text) const {
  return ExecuteKeyed(query_text, /*query=*/nullptr);
}

Result<QueryOutcome> Engine::Execute(const Query& query) const {
  SQOPT_ASSIGN_OR_RETURN(std::string key, PrintedKey(state_->schema, query));
  return ExecuteKeyed(key, &query);
}

Result<CachedAnswer> Engine::ExecuteIfCached(
    std::string_view query_text) const {
  const detail::EngineState& state = *state_;
  CachedAnswer answer;
  std::shared_ptr<const detail::PreparedState> entry = state.plan_cache.Lookup(
      query_text, /*count_miss=*/false, /*sequential_only=*/true);
  if (entry == nullptr) return answer;
  answer.cached = true;
  RecordAccess(state, entry->original);
  ExecutionMeter meter;
  SQOPT_ASSIGN_OR_RETURN(
      ResultSet rows,
      detail::RunPrepared(state, *entry, state.data_snapshot(), &meter));
  answer.answered_without_database = entry->empty_result;
  answer.rows = std::move(rows.rows);
  state.queries_executed.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

Result<QueryOutcome> Engine::ExecuteKeyed(std::string_view key,
                                          const Query* query) const {
  const detail::EngineState& state = *state_;
  // Epoch BEFORE snapshot: Load() publishes the new snapshot first and
  // bumps the epoch second, so an epoch that is still current at Insert
  // time proves the snapshot below was not replaced while the plan was
  // being built. (Snapshot-then-epoch would let a plan built against
  // the dropped store slip in under the new epoch.)
  const uint64_t epoch = state.plan_cache.epoch();
  std::shared_ptr<const detail::LoadedData> data = state.data_snapshot();
  if (data == nullptr) return NoDataLoaded();
  bool hit = false;
  SQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const detail::PreparedState> entry,
      PrepareCached(state, data, epoch, key, query, &hit));
  RecordAccess(state, entry->original);
  SQOPT_ASSIGN_OR_RETURN(QueryOutcome out,
                         detail::ExecutePrepared(state, *entry, data));
  // On a hit the entry's `original` is whatever query with the same
  // printed form populated it; report the Query THIS caller submitted.
  if (query != nullptr) out.original = *query;
  out.plan_cache_hit = hit;
  out.plan_cache = state.plan_cache.stats(/*count_entries=*/false);
  state.queries_executed.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<QueryOutcome> Engine::ExecuteUnoptimized(
    std::string_view query_text) const {
  SQOPT_ASSIGN_OR_RETURN(Query query, Parse(query_text));
  return ExecuteUnoptimized(query);
}

Result<QueryOutcome> Engine::ExecuteUnoptimized(const Query& query) const {
  const detail::EngineState& state = *state_;
  std::shared_ptr<const detail::LoadedData> data = state.data_snapshot();
  if (data == nullptr) return NoDataLoaded();
  RecordAccess(state, query);
  SQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const detail::PreparedState> prepared,
      BuildPrepared(state, data, query, /*optimize=*/false));
  SQOPT_ASSIGN_OR_RETURN(QueryOutcome out,
                         detail::ExecutePrepared(state, *prepared, data));
  state.queries_executed.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<QueryOutcome> Engine::Analyze(std::string_view query_text) const {
  SQOPT_ASSIGN_OR_RETURN(Query query, Parse(query_text));
  return Analyze(query);
}

Result<QueryOutcome> Engine::Analyze(const Query& query) const {
  SQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<detail::PreparedState> prepared,
      PrepareForAnalysis(*state_, query, /*plan=*/false));
  QueryOutcome out;
  out.original = query;
  out.transformed = std::move(prepared->transformed);
  out.report = std::move(prepared->report);
  out.answered_without_database = prepared->empty_result;
  state_->queries_analyzed.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<PreparedQuery> Engine::Prepare(std::string_view query_text) const {
  return PrepareKeyed(query_text, /*query=*/nullptr);
}

Result<PreparedQuery> Engine::Prepare(const Query& query) const {
  SQOPT_ASSIGN_OR_RETURN(std::string key, PrintedKey(state_->schema, query));
  return PrepareKeyed(key, &query);
}

Result<PreparedQuery> Engine::PrepareKeyed(std::string_view key,
                                           const Query* query) const {
  const detail::EngineState& state = *state_;
  // Epoch before snapshot — see ExecuteKeyed. Prepare and Execute
  // share the plan cache: a handle for a recently executed query reuses
  // its cached plan, and a handle prepared here seeds the cache for
  // later ad-hoc Executes.
  const uint64_t epoch = state.plan_cache.epoch();
  bool hit = false;
  SQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const detail::PreparedState> prepared,
      PrepareCached(state, state.data_snapshot(), epoch, key, query, &hit));
  RecordAccess(state, prepared->original);
  state.statements_prepared.fetch_add(1, std::memory_order_relaxed);
  return PreparedQuery(state_, std::move(prepared));
}

Result<std::string> Engine::Explain(std::string_view query_text) const {
  SQOPT_ASSIGN_OR_RETURN(Query query, Parse(query_text));
  SQOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const detail::PreparedState> prepared,
      PrepareForAnalysis(*state_, query, /*plan=*/true));
  const Schema& schema = state_->schema;
  std::string text = prepared->report.ToString(schema);
  text += "transformed: " + PrintQuery(schema, prepared->transformed);
  text += "\n";
  if (prepared->plan.has_value()) {
    text += "plan:\n" + prepared->plan->ToString(schema);
  }
  return text;
}

// ---------------------------------------------------------------------
// Engine: introspection.
// ---------------------------------------------------------------------

const Schema& Engine::schema() const { return state_->schema; }

const ConstraintCatalog& Engine::catalog() const { return state_->catalog; }

const ObjectStore* Engine::store() const {
  std::shared_ptr<const detail::LoadedData> data = state_->data_snapshot();
  return data == nullptr ? nullptr : data->store.get();
}

const DatabaseStats* Engine::database_stats() const {
  std::shared_ptr<const detail::LoadedData> data = state_->data_snapshot();
  return data == nullptr ? nullptr : &data->db_stats;
}

const CostModelInterface* Engine::cost_model() const {
  std::shared_ptr<const detail::LoadedData> data = state_->data_snapshot();
  return data == nullptr ? nullptr : data->cost_model.get();
}

uint64_t Engine::data_version() const {
  std::shared_ptr<const detail::LoadedData> data = state_->data_snapshot();
  return data == nullptr ? 0 : data->version;
}

const EngineOptions& Engine::options() const { return state_->options; }

AccessStats Engine::access_stats() const {
  std::lock_guard<std::mutex> lock(state_->access_mutex);
  return state_->access;
}

AccessStats* Engine::mutable_access_stats() { return &state_->access; }

EngineStats Engine::stats() const {
  const detail::EngineState& state = *state_;
  EngineStats out;
  out.queries_parsed =
      state.queries_parsed.load(std::memory_order_relaxed);
  out.queries_executed =
      state.queries_executed.load(std::memory_order_relaxed);
  out.queries_analyzed =
      state.queries_analyzed.load(std::memory_order_relaxed);
  out.statements_prepared =
      state.statements_prepared.load(std::memory_order_relaxed);
  out.prepared_executions =
      state.prepared_executions.load(std::memory_order_relaxed);
  out.contradictions = state.contradictions.load(std::memory_order_relaxed);
  out.mutation_batches_applied =
      state.mutation_batches_applied.load(std::memory_order_relaxed);
  out.mutation_ops_applied =
      state.mutation_ops_applied.load(std::memory_order_relaxed);
  out.mutation_batches_rejected =
      state.mutation_batches_rejected.load(std::memory_order_relaxed);
  out.checkpoints = state.checkpoints.load(std::memory_order_relaxed);
  out.wal_records_replayed =
      state.wal_records_replayed.load(std::memory_order_relaxed);
  out.stats_recollections =
      state.stats_recollections.load(std::memory_order_relaxed);
  return out;
}

PlanCacheStats Engine::plan_cache_stats() const {
  return state_->plan_cache.stats();
}

}  // namespace sqopt
