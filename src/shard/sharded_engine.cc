#include "shard/sharded_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "api/engine_impl.h"
#include "common/worker_pool.h"
#include "exec/executor.h"
#include "persist/crash_point.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "workload/dbgen.h"

namespace sqopt::shard {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFileName = "MANIFEST";
constexpr const char* kCoordWalFileName = "coordinator.wal";
constexpr const char* kManifestMagic = "sqopt-shard-manifest";
constexpr int kMaxShards = 16;
constexpr const char* kShardDigits = "0123456789abcdef";

// Segment -> shard by contiguous ranges: exact for divisors of
// kNumSegments, empty trailing shards above it, balanced below it.
int ShardOfSegment(int segment, int shards) {
  return segment * shards / kNumSegments;
}

std::string ShardDirName(const std::string& dir, int k) {
  return (fs::path(dir) / ("shard" + std::to_string(k))).string();
}

// How one batch splits across the fleet: per-shard sub-batches with
// rows translated to shard-local ids and pending-insert handles
// renumbered per shard, plus the per-insert routing (which shard and
// class each staged insert lands in, in staging order).
struct SplitBatch {
  std::vector<MutationBatch> sub;  // one per shard, possibly empty
  std::vector<int> insert_shard;   // by original insert index
  std::vector<ClassId> insert_class;
};

}  // namespace

struct ShardedEngine::State {
  State(ShardOptions opts, Engine h, std::vector<Engine> s)
      : options(std::move(opts)),
        head(std::move(h)),
        shards(std::move(s)) {}

  ShardOptions options;

  // The planning head: a full Engine over the UNPARTITIONED store. It
  // plans every query (shared plan cache), validates and commits every
  // batch first (global constraint oracle), and serves the global-row
  // view (store(), schema()). Readers go through its snapshot pinning;
  // the coordinator only adds the routing tables below.
  Engine head;
  std::vector<Engine> shards;

  // Coordinator-level reader/writer isolation: Execute and the stats
  // readers take it shared; Load / Apply / ApplyGroup / Save /
  // Checkpoint take it exclusive, because a commit mutates the routing
  // tables mid-flight and those have no snapshot lineage for readers
  // to pin (coarser than Engine's MVCC, and documented as such).
  mutable std::shared_mutex data_lock;

  // Routing, all indexed by GLOBAL row id (the head's row ids).
  // shard_of[c][g] is the shard owning the row; local_row[c][g] its
  // row id inside that shard; global_row[k][c][l] the inverse map.
  // Local ids allocate in ascending-global-row order (loads iterate
  // rows ascending, inserts always append), which is what lets
  // recovery rebuild the maps from the manifest's digit strings alone.
  std::vector<std::vector<int8_t>> shard_of;
  std::vector<std::vector<int64_t>> local_row;
  std::vector<std::vector<std::vector<int64_t>>> global_row;

  bool loaded = false;
  // Coordinator-sequenced version: head.data_version() +
  // version_offset. The offset is 0 for an in-memory lifetime and
  // becomes the pre-recovery history length after Open(dir), where the
  // rebuilt head restarts its own lineage at 1.
  uint64_t global_version = 0;
  uint64_t version_offset = 0;

  // Durable attachment (Save / Open(dir)); empty/null when in-memory.
  std::string dir;
  std::unique_ptr<persist::WalWriter> coord_log;

  // Coordinator counters (stats() merges them with the head's and the
  // shards').
  mutable std::atomic<uint64_t> queries_executed{0};
  mutable std::atomic<uint64_t> contradictions{0};
  std::atomic<uint64_t> committed_batches{0};
  std::atomic<uint64_t> precheck_rejected{0};
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> coord_records_replayed{0};

  // Lazily-created scatter pool (one task per shard beyond the first).
  mutable std::shared_ptr<WorkerPool> pool;
  mutable std::mutex pool_mutex;

  std::shared_ptr<WorkerPool> GetPool() const {
    std::lock_guard<std::mutex> lock(pool_mutex);
    if (pool == nullptr) {
      pool = std::make_shared<WorkerPool>(
          WorkerPool::ResolveThreads(options.engine.serve.threads));
    }
    return pool;
  }
};

namespace {

// Shard engines never plan (the head does) and never fsync (the
// coordinator log is the durability point; shard WALs only shortcut
// replay).
EngineOptions ShardEngineOptions(const EngineOptions& base) {
  EngineOptions opts = base;
  opts.serve.cache_capacity = 0;
  opts.serve.durability.fsync = false;
  return opts;
}

// Resolves which shard each op of `batch` touches and builds the
// per-shard sub-batches. Callers guarantee the batch was (or will be,
// for the pre-check subset) accepted by the head, so every row id is
// in routing range; anything else is an Internal invariant breach.
Result<SplitBatch> Split(const ShardedEngine::State& st,
                         const MutationBatch& batch) {
  const Schema& schema = st.head.schema();
  const int n = static_cast<int>(st.shards.size());
  SplitBatch split;
  split.sub.resize(static_cast<size_t>(n));

  // Pre-scan inserts: later (or earlier) ops may reference insert j
  // through handle -1-j, so insert shards must be known up front.
  for (const Mutation& op : batch.ops()) {
    if (op.kind != Mutation::Kind::kInsert) continue;
    split.insert_shard.push_back(ShardOfSegment(
        SegmentOfObject(schema, op.class_id, op.object), n));
    split.insert_class.push_back(op.class_id);
  }

  // Local pending handle of insert j inside its shard's sub-batch.
  std::vector<int64_t> local_handle(split.insert_shard.size(), 0);

  auto shard_of_row = [&](ClassId cid, int64_t row) -> Result<int> {
    if (row < 0) {
      const size_t j = static_cast<size_t>(-1 - row);
      if (j >= split.insert_shard.size()) {
        return Status::Internal("sharded split: dangling insert handle");
      }
      return split.insert_shard[j];
    }
    if (cid >= static_cast<ClassId>(st.shard_of.size()) ||
        row >= static_cast<int64_t>(st.shard_of[cid].size())) {
      return Status::Internal("sharded split: row outside routing table");
    }
    return static_cast<int>(st.shard_of[cid][row]);
  };
  auto local_of = [&](ClassId cid, int64_t row) -> int64_t {
    if (row < 0) return local_handle[static_cast<size_t>(-1 - row)];
    return st.local_row[cid][row];
  };

  size_t j = 0;
  for (const Mutation& op : batch.ops()) {
    switch (op.kind) {
      case Mutation::Kind::kInsert: {
        const int k = split.insert_shard[j];
        local_handle[j] = split.sub[k].Insert(op.class_id, op.object);
        ++j;
        break;
      }
      case Mutation::Kind::kUpdate: {
        SQOPT_ASSIGN_OR_RETURN(const int k,
                               shard_of_row(op.class_id, op.row));
        split.sub[k].Update(op.class_id, local_of(op.class_id, op.row),
                            op.attr_id, op.value);
        break;
      }
      case Mutation::Kind::kDelete: {
        SQOPT_ASSIGN_OR_RETURN(const int k,
                               shard_of_row(op.class_id, op.row));
        split.sub[k].Delete(op.class_id, local_of(op.class_id, op.row));
        break;
      }
      case Mutation::Kind::kLink:
      case Mutation::Kind::kUnlink: {
        const Relationship& rel = schema.relationship(op.rel_id);
        SQOPT_ASSIGN_OR_RETURN(const int ka, shard_of_row(rel.a, op.row_a));
        SQOPT_ASSIGN_OR_RETURN(const int kb, shard_of_row(rel.b, op.row_b));
        if (ka != kb) {
          return Status::Internal(
              "sharded split: cross-shard relationship instance slipped "
              "past the pre-check");
        }
        if (op.kind == Mutation::Kind::kLink) {
          split.sub[ka].Link(op.rel_id, local_of(rel.a, op.row_a),
                             local_of(rel.b, op.row_b));
        } else {
          split.sub[ka].Unlink(op.rel_id, local_of(rel.a, op.row_a),
                               local_of(rel.b, op.row_b));
        }
        break;
      }
    }
  }
  return split;
}

// The coordinator-level admission check run BEFORE the head commits:
// a link whose endpoints partition to different shards can never be
// represented by the fleet, so it is rejected up front with the same
// typed status a single engine's constraint validator produces for
// cross-segment links on the experiment workload. Ops the head would
// reject anyway (bad rows, dangling handles) are left for the head so
// its error codes pass through unchanged.
Status PrecheckCrossShard(const ShardedEngine::State& st,
                          const MutationBatch& batch) {
  const Schema& schema = st.head.schema();
  const int n = static_cast<int>(st.shards.size());
  if (n == 1) return Status::OK();

  std::vector<int> insert_shard;
  for (const Mutation& op : batch.ops()) {
    if (op.kind != Mutation::Kind::kInsert) continue;
    insert_shard.push_back(ShardOfSegment(
        SegmentOfObject(schema, op.class_id, op.object), n));
  }
  // -1 = unresolvable here (the head will reject the op itself).
  auto resolve = [&](ClassId cid, int64_t row) -> int {
    if (row < 0) {
      const size_t j = static_cast<size_t>(-1 - row);
      return j < insert_shard.size() ? insert_shard[j] : -1;
    }
    if (cid >= static_cast<ClassId>(st.shard_of.size()) ||
        row >= static_cast<int64_t>(st.shard_of[cid].size())) {
      return -1;
    }
    return static_cast<int>(st.shard_of[cid][row]);
  };
  for (const Mutation& op : batch.ops()) {
    if (op.kind != Mutation::Kind::kLink) continue;
    if (op.rel_id < 0 ||
        op.rel_id >= static_cast<RelId>(schema.num_relationships())) {
      continue;  // malformed; the head rejects it with its own code
    }
    const Relationship& rel = schema.relationship(op.rel_id);
    const int ka = resolve(rel.a, op.row_a);
    const int kb = resolve(rel.b, op.row_b);
    if (ka >= 0 && kb >= 0 && ka != kb) {
      return Status::ConstraintViolation(
          "relationship '" + rel.name +
          "' instance would span shards " + std::to_string(ka) + " and " +
          std::to_string(kb) + " (cross-shard links are unrepresentable)");
    }
  }
  return Status::OK();
}

// Applies one already-split, head-committed batch to the fleet and
// extends the routing tables for its inserts. Row allocation is
// deterministic on both sides (head and shards append slots
// monotonically), so the new global/local ids are computed, then
// cross-checked against what the engines actually allocated.
// `head_inserted` is null during recovery replay (the head is rebuilt
// afterwards).
Status DispatchToShards(ShardedEngine::State& st, const SplitBatch& split,
                        const std::vector<int64_t>* head_inserted) {
  const int n = static_cast<int>(st.shards.size());
  std::vector<std::vector<int64_t>> shard_inserted(static_cast<size_t>(n));
  bool first = true;
  for (int k = 0; k < n; ++k) {
    if (split.sub[k].empty()) continue;
    Result<ApplyOutcome> r = st.shards[k].Apply(split.sub[k]);
    if (!r.ok()) {
      return Status::Internal("shard " + std::to_string(k) +
                              " diverged from the coordinator: " +
                              r.status().message());
    }
    shard_inserted[k] = std::move(r->inserted_rows);
    if (first) {
      first = false;
      persist::MaybeCrash("coord_mid_dispatch");
    }
  }

  std::vector<size_t> next(static_cast<size_t>(n), 0);
  for (size_t j = 0; j < split.insert_shard.size(); ++j) {
    const int k = split.insert_shard[j];
    const ClassId cid = split.insert_class[j];
    const int64_t g = static_cast<int64_t>(st.shard_of[cid].size());
    const int64_t local =
        static_cast<int64_t>(st.global_row[k][cid].size());
    if (head_inserted != nullptr && (*head_inserted)[j] != g) {
      return Status::Internal("sharded commit: global row allocation "
                              "diverged between head and coordinator");
    }
    if (next[k] >= shard_inserted[k].size() ||
        shard_inserted[k][next[k]] != local) {
      return Status::Internal("sharded commit: local row allocation "
                              "diverged on shard " + std::to_string(k));
    }
    ++next[k];
    st.shard_of[cid].push_back(static_cast<int8_t>(k));
    st.local_row[cid].push_back(local);
    st.global_row[k][cid].push_back(g);
  }
  return Status::OK();
}

// --- Coordinator manifest: a small text file naming the fleet shape,
// the committed global version, each shard's version at write time
// (recovery's replay baseline), and the per-class routing digit
// strings. Written atomically (tmp + rename + directory fsync). ---

struct Manifest {
  int shards = 0;
  uint64_t version = 0;
  std::vector<uint64_t> shard_versions;
  std::vector<std::string> routing;  // per class, one hex digit per row
};

Status WriteManifest(const ShardedEngine::State& st,
                     const std::string& dir) {
  std::ostringstream out;
  out << kManifestMagic << " 1\n";
  out << "shards " << st.shards.size() << "\n";
  out << "version " << st.global_version << "\n";
  for (size_t k = 0; k < st.shards.size(); ++k) {
    out << "shard_version " << k << " " << st.shards[k].data_version()
        << "\n";
  }
  out << "classes " << st.shard_of.size() << "\n";
  for (size_t c = 0; c < st.shard_of.size(); ++c) {
    out << "routing " << c << " ";
    if (st.shard_of[c].empty()) {
      out << ".";
    } else {
      for (const int8_t k : st.shard_of[c]) out << kShardDigits[k];
    }
    out << "\n";
  }
  const std::string text = out.str();

  const std::string path = (fs::path(dir) / kManifestFileName).string();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create manifest tmp '" + tmp + "'");
  }
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t m = ::write(fd, text.data() + written,
                              text.size() - written);
    if (m < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("manifest write failed");
    }
    written += static_cast<size_t>(m);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("manifest fsync failed");
  }
  ::close(fd);
  persist::MaybeCrash("manifest_pre_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("manifest rename failed");
  }
  SQOPT_RETURN_IF_ERROR(persist::FsyncDirOf(path));
  persist::MaybeCrash("manifest_post_rename");
  return Status::OK();
}

Result<Manifest> ReadManifest(const std::string& dir) {
  const std::string path = (fs::path(dir) / kManifestFileName).string();
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("no shard manifest at '" + path + "'");
  }
  Manifest m;
  std::string magic;
  int fmt = 0;
  std::string tag;
  if (!(in >> magic >> fmt) || magic != kManifestMagic || fmt != 1) {
    return Status::Corruption("bad shard manifest header in '" + path +
                              "'");
  }
  size_t num_classes = 0;
  if (!(in >> tag >> m.shards) || tag != "shards" || m.shards < 1 ||
      m.shards > kMaxShards) {
    return Status::Corruption("bad shard count in manifest");
  }
  if (!(in >> tag >> m.version) || tag != "version") {
    return Status::Corruption("bad version in manifest");
  }
  m.shard_versions.resize(static_cast<size_t>(m.shards), 0);
  for (int k = 0; k < m.shards; ++k) {
    int idx = -1;
    uint64_t v = 0;
    if (!(in >> tag >> idx >> v) || tag != "shard_version" || idx != k) {
      return Status::Corruption("bad shard_version line in manifest");
    }
    m.shard_versions[static_cast<size_t>(k)] = v;
  }
  if (!(in >> tag >> num_classes) || tag != "classes") {
    return Status::Corruption("bad class count in manifest");
  }
  m.routing.resize(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    size_t idx = 0;
    std::string digits;
    if (!(in >> tag >> idx >> digits) || tag != "routing" || idx != c) {
      return Status::Corruption("bad routing line in manifest");
    }
    if (digits == ".") digits.clear();
    for (const char d : digits) {
      const char* pos = std::strchr(kShardDigits, d);
      if (pos == nullptr ||
          pos - kShardDigits >= static_cast<ptrdiff_t>(m.shards)) {
        return Status::Corruption("bad routing digit in manifest");
      }
    }
    m.routing[c] = std::move(digits);
  }
  return m;
}

}  // namespace

// ---------------------------------------------------------------------
// Open / Load.
// ---------------------------------------------------------------------

Result<ShardedEngine> ShardedEngine::Open(SchemaSource schema_source,
                                          ConstraintSource constraint_source,
                                          ShardOptions options) {
  if (options.shards < 1 || options.shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  SQOPT_ASSIGN_OR_RETURN(
      Engine head,
      Engine::Open(schema_source, constraint_source, options.engine));
  const EngineOptions shard_opts = ShardEngineOptions(options.engine);
  std::vector<Engine> shards;
  shards.reserve(static_cast<size_t>(options.shards));
  for (int k = 0; k < options.shards; ++k) {
    SQOPT_ASSIGN_OR_RETURN(
        Engine s, Engine::Open(schema_source, constraint_source, shard_opts));
    shards.push_back(std::move(s));
  }
  return ShardedEngine(std::make_shared<State>(
      std::move(options), std::move(head), std::move(shards)));
}

Status ShardedEngine::Load(DataSource data_source) {
  State& st = *state_;
  std::unique_lock lock(st.data_lock);
  const Schema& schema = st.head.schema();
  const int n = static_cast<int>(st.shards.size());

  SQOPT_ASSIGN_OR_RETURN(std::unique_ptr<ObjectStore> global,
                         data_source.Build(schema));

  const size_t num_classes = schema.num_classes();
  std::vector<std::unique_ptr<ObjectStore>> stores;
  stores.reserve(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    stores.push_back(
        std::make_unique<ObjectStore>(&st.shards[k].schema()));
  }
  std::vector<std::vector<int8_t>> shard_of(num_classes);
  std::vector<std::vector<int64_t>> local_row(num_classes);
  std::vector<std::vector<std::vector<int64_t>>> global_row(
      static_cast<size_t>(n),
      std::vector<std::vector<int64_t>>(num_classes));

  for (size_t c = 0; c < num_classes; ++c) {
    const ClassId cid = static_cast<ClassId>(c);
    const int64_t slots = global->NumObjects(cid);
    // Tombstones carry no partitionable identity and would break the
    // slot-count parity the merge depends on; every supported source
    // (generator output, snapshot-free rebuilds) is live-only.
    if (global->NumLiveObjects(cid) != slots) {
      return Status::InvalidArgument(
          "sharded Load requires a tombstone-free store (class '" +
          schema.object_class(cid).name + "' has dead rows)");
    }
    shard_of[c].reserve(static_cast<size_t>(slots));
    local_row[c].reserve(static_cast<size_t>(slots));
    for (int64_t row = 0; row < slots; ++row) {
      Object obj = global->extent(cid).MaterializeRow(row);
      const int k =
          ShardOfSegment(SegmentOfObject(schema, cid, obj), n);
      SQOPT_ASSIGN_OR_RETURN(const int64_t local,
                             stores[k]->Insert(cid, std::move(obj)));
      if (local != static_cast<int64_t>(global_row[k][c].size())) {
        return Status::Internal("sharded Load: non-monotonic local rows");
      }
      shard_of[c].push_back(static_cast<int8_t>(k));
      local_row[c].push_back(local);
      global_row[k][c].push_back(row);
    }
  }
  for (size_t r = 0; r < schema.num_relationships(); ++r) {
    const RelId rid = static_cast<RelId>(r);
    const Relationship& rel = schema.relationship(rid);
    for (const auto& [a, b] : global->Pairs(rid)) {
      const int ka = shard_of[rel.a][a];
      const int kb = shard_of[rel.b][b];
      if (ka != kb) {
        return Status::InvalidArgument(
            "data is not partitionable: relationship '" + rel.name +
            "' links rows across segments assigned to different shards");
      }
      SQOPT_RETURN_IF_ERROR(
          stores[ka]->Link(rid, local_row[rel.a][a], local_row[rel.b][b]));
    }
  }

  for (int k = 0; k < n; ++k) {
    SQOPT_RETURN_IF_ERROR(
        st.shards[k].Load(DataSource::FromStore(std::move(stores[k]))));
  }
  SQOPT_RETURN_IF_ERROR(
      st.head.Load(DataSource::FromStore(std::move(global))));

  st.shard_of = std::move(shard_of);
  st.local_row = std::move(local_row);
  st.global_row = std::move(global_row);
  st.loaded = true;
  st.global_version = 1;
  st.version_offset = 0;
  // Like Engine::Load, a wholesale data replacement invalidates any
  // on-disk lineage; Save() re-attaches.
  st.dir.clear();
  st.coord_log.reset();
  return Status::OK();
}

// ---------------------------------------------------------------------
// Read path.
// ---------------------------------------------------------------------

Result<QueryOutcome> ShardedEngine::Execute(
    std::string_view query_text) const {
  const State& st = *state_;
  std::shared_lock lock(st.data_lock);
  if (!st.loaded) {
    return Status::FailedPrecondition(
        "no data loaded: call ShardedEngine::Load before Execute");
  }
  // Plan ONCE on the head; every shard executes the same plan.
  SQOPT_ASSIGN_OR_RETURN(PlannedStatement stmt,
                         st.head.PlanStatement(query_text));
  const detail::PreparedState& prep = *stmt.prepared;

  QueryOutcome out;
  out.original = prep.original;
  out.transformed = prep.transformed;
  out.report = prep.report;
  out.plan_cache_hit = stmt.plan_cache_hit;
  if (prep.empty_result) {
    out.answered_without_database = true;
    st.contradictions.fetch_add(1, std::memory_order_relaxed);
    st.queries_executed.fetch_add(1, std::memory_order_relaxed);
    prep.executions.fetch_add(1, std::memory_order_relaxed);
    out.plan_cache = st.head.plan_cache_stats();
    return out;
  }
  if (!prep.plan.has_value()) {
    return Status::Internal("planned statement carries no physical plan");
  }
  const Plan& plan = *prep.plan;
  const int n = static_cast<int>(st.shards.size());

  // Scatter: the shard is the unit of parallelism, so each shard runs
  // the plan sequentially (ctx.pool stays null) with the provenance
  // channel recording which driving row produced each output row.
  struct Part {
    ResultSet rows;
    ExecutionMeter meter;
    std::vector<int64_t> prov;
    Status status;
  };
  std::vector<Part> parts(static_cast<size_t>(n));
  auto run_shard = [&](int k) {
    Part& p = parts[static_cast<size_t>(k)];
    ExecContext ctx;
    ctx.driving_rows = &p.prov;
    Result<ResultSet> r =
        ExecutePlan(*st.shards[static_cast<size_t>(k)].store(), plan,
                    &p.meter, ctx);
    if (r.ok()) {
      p.rows = std::move(*r);
    } else {
      p.status = r.status();
    }
  };
  if (n > 1) {
    std::shared_ptr<WorkerPool> pool = st.GetPool();
    std::mutex m;
    std::condition_variable cv;
    int pending = n - 1;
    for (int k = 1; k < n; ++k) {
      pool->Submit([&, k] {
        run_shard(k);
        // Notify under the lock: the waiter owns this stack latch and
        // may destroy it the instant the predicate is visible.
        std::lock_guard<std::mutex> g(m);
        --pending;
        cv.notify_one();
      });
    }
    run_shard(0);
    std::unique_lock<std::mutex> ul(m);
    cv.wait(ul, [&] { return pending == 0; });
  } else {
    run_shard(0);
  }
  for (const Part& p : parts) {
    SQOPT_RETURN_IF_ERROR(p.status);
    if (p.rows.rows.size() != p.prov.size()) {
      return Status::Internal("shard result/provenance size mismatch");
    }
  }

  // Gather: work counters are exact sums over disjoint row sets;
  // index_probes is the per-shard MAX because every shard issues the
  // plan's probes against its own index exactly once, as the single
  // engine does against its one global index.
  ExecutionMeter& meter = out.meter;
  uint64_t max_probes = 0;
  size_t total = 0;
  for (const Part& p : parts) {
    meter.instances_scanned += p.meter.instances_scanned;
    meter.pointer_traversals += p.meter.pointer_traversals;
    meter.predicate_evals += p.meter.predicate_evals;
    max_probes = std::max(max_probes, p.meter.index_probes);
    total += p.rows.rows.size();
  }
  meter.index_probes = max_probes;
  meter.rows_out = total;

  // Deterministic k-way merge on the GLOBAL id of each row's driving
  // row. A global row lives in exactly one shard, so cross-shard ties
  // are impossible; within a shard, runs of equal driving rows
  // (multi-partner expansion) stay in shard order. The result is the
  // exact row order a single engine produces, because the executor
  // emits rows in ascending driving-row order (full scans by
  // construction, index scans after the canonical candidate sort).
  const ClassId drive_class = plan.steps[0].class_id;
  std::vector<size_t> idx(static_cast<size_t>(n), 0);
  out.rows.rows.reserve(total);
  for (;;) {
    int best = -1;
    int64_t best_g = std::numeric_limits<int64_t>::max();
    for (int k = 0; k < n; ++k) {
      const Part& p = parts[static_cast<size_t>(k)];
      if (idx[static_cast<size_t>(k)] >= p.prov.size()) continue;
      const int64_t g =
          st.global_row[static_cast<size_t>(k)][drive_class]
                       [p.prov[idx[static_cast<size_t>(k)]]];
      if (g < best_g) {
        best_g = g;
        best = k;
      }
    }
    if (best < 0) break;
    size_t& i = idx[static_cast<size_t>(best)];
    out.rows.rows.push_back(
        std::move(parts[static_cast<size_t>(best)].rows.rows[i]));
    ++i;
  }

  out.executed = true;
  out.plan_cache = st.head.plan_cache_stats();
  prep.executions.fetch_add(1, std::memory_order_relaxed);
  st.queries_executed.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<Query> ShardedEngine::Parse(std::string_view query_text) const {
  return state_->head.Parse(query_text);
}

// ---------------------------------------------------------------------
// Write path.
// ---------------------------------------------------------------------

Result<ApplyOutcome> ShardedEngine::Apply(const MutationBatch& batch) {
  State& st = *state_;
  std::unique_lock lock(st.data_lock);
  if (!st.loaded) {
    return Status::FailedPrecondition(
        "no data loaded: call ShardedEngine::Load before Apply");
  }
  if (batch.empty()) {  // no-op commit, exactly like Engine
    SQOPT_ASSIGN_OR_RETURN(ApplyOutcome out, st.head.Apply(batch));
    out.snapshot_version += st.version_offset;
    return out;
  }
  {
    Status precheck = PrecheckCrossShard(st, batch);
    if (!precheck.ok()) {
      st.precheck_rejected.fetch_add(1, std::memory_order_relaxed);
      return precheck;
    }
  }
  // The head is the constraint oracle: it validates and commits first,
  // and a rejection passes through with the head's own typed status
  // before anything touches the log or a shard.
  SQOPT_ASSIGN_OR_RETURN(ApplyOutcome out, st.head.Apply(batch));
  out.snapshot_version += st.version_offset;
  out.group_size = 1;
  st.global_version = out.snapshot_version;

  if (st.coord_log != nullptr) {
    SQOPT_RETURN_IF_ERROR(st.coord_log->Append(
        st.global_version, {batch},
        st.options.engine.serve.durability.fsync, &out.fsync_micros));
    persist::MaybeCrash("coord_post_log");
  }
  SQOPT_ASSIGN_OR_RETURN(SplitBatch split, Split(st, batch));
  SQOPT_RETURN_IF_ERROR(DispatchToShards(st, split, &out.inserted_rows));
  st.committed_batches.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<Result<ApplyOutcome>> ShardedEngine::ApplyGroup(
    std::span<const MutationBatch> batches) {
  State& st = *state_;
  std::unique_lock lock(st.data_lock);
  std::vector<Result<ApplyOutcome>> results;
  if (batches.empty()) return results;
  results.reserve(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    results.emplace_back(Status::Internal("unresolved group slot"));
  }
  if (!st.loaded) {
    for (auto& r : results) {
      r = Status::FailedPrecondition(
          "no data loaded: call ShardedEngine::Load before ApplyGroup");
    }
    return results;
  }

  // Coordinator pre-check first; only the surviving batches reach the
  // head, so a cross-shard batch never consumes a version.
  std::vector<MutationBatch> accepted;
  std::vector<size_t> slot;
  for (size_t i = 0; i < batches.size(); ++i) {
    Status precheck = PrecheckCrossShard(st, batches[i]);
    if (precheck.ok()) {
      accepted.push_back(batches[i]);
      slot.push_back(i);
    } else {
      st.precheck_rejected.fetch_add(1, std::memory_order_relaxed);
      results[i] = std::move(precheck);
    }
  }
  if (accepted.empty()) return results;

  std::vector<Result<ApplyOutcome>> head_results =
      st.head.ApplyGroup(accepted);

  // Survivors: committed, non-empty batches, in commit (= version)
  // order. They share one coordinator log record and dispatch in
  // order.
  struct Survivor {
    const MutationBatch* batch;
    size_t slot;
  };
  std::vector<Survivor> survivors;
  uint64_t first_version = 0;
  for (size_t a = 0; a < head_results.size(); ++a) {
    Result<ApplyOutcome>& hr = head_results[a];
    if (hr.ok()) {
      hr->snapshot_version += st.version_offset;
      if (!accepted[a].empty()) {
        if (survivors.empty()) first_version = hr->snapshot_version;
        survivors.push_back(Survivor{&batches[slot[a]], slot[a]});
      }
    }
    results[slot[a]] = std::move(hr);
  }
  if (survivors.empty()) return results;
  st.global_version =
      first_version + static_cast<uint64_t>(survivors.size()) - 1;

  if (st.coord_log != nullptr) {
    std::vector<MutationBatch> logged;
    logged.reserve(survivors.size());
    for (const Survivor& s : survivors) logged.push_back(*s.batch);
    Status append = st.coord_log->Append(
        first_version, logged, st.options.engine.serve.durability.fsync);
    if (!append.ok()) {
      // The head already committed; without a durable record the fleet
      // cannot follow. Surface the error on every survivor slot — the
      // caller must reopen from disk.
      for (const Survivor& s : survivors) results[s.slot] = append;
      return results;
    }
    persist::MaybeCrash("coord_post_log");
  }
  for (const Survivor& s : survivors) {
    Result<SplitBatch> split = Split(st, *s.batch);
    Status dispatched =
        split.ok() ? DispatchToShards(
                         st, *split, &results[s.slot]->inserted_rows)
                   : split.status();
    if (!dispatched.ok()) {
      results[s.slot] = dispatched;
      return results;  // fleet inconsistent; reopen from disk
    }
    st.committed_batches.fetch_add(1, std::memory_order_relaxed);
  }
  return results;
}

// ---------------------------------------------------------------------
// Durability.
// ---------------------------------------------------------------------

Status ShardedEngine::Save(const std::string& dir) {
  State& st = *state_;
  std::unique_lock lock(st.data_lock);
  if (!st.loaded) {
    return Status::FailedPrecondition(
        "no data loaded: call ShardedEngine::Load before Save");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory '" + dir +
                                   "': " + ec.message());
  }
  for (size_t k = 0; k < st.shards.size(); ++k) {
    SQOPT_RETURN_IF_ERROR(
        st.shards[k].Save(ShardDirName(dir, static_cast<int>(k))));
  }
  SQOPT_RETURN_IF_ERROR(WriteManifest(st, dir));
  const std::string wal_path =
      (fs::path(dir) / kCoordWalFileName).string();
  SQOPT_ASSIGN_OR_RETURN(st.coord_log, persist::WalWriter::Open(wal_path));
  SQOPT_RETURN_IF_ERROR(st.coord_log->Truncate(/*fsync=*/true));
  st.dir = dir;
  return Status::OK();
}

Status ShardedEngine::Checkpoint() {
  State& st = *state_;
  std::unique_lock lock(st.data_lock);
  if (st.dir.empty() || st.coord_log == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint requires a durable sharded engine (Save or Open(dir))");
  }
  // Order matters but every cut point converges: shard checkpoints
  // fold shard WALs; the manifest rename then moves the replay
  // baseline; the coordinator truncate drops records the baseline
  // already covers. A kill between any two steps leaves recovery
  // either replaying forward from the old baseline (shard versions
  // skip already-applied sub-batches) or skipping stale records under
  // the new one.
  for (Engine& s : st.shards) {
    SQOPT_RETURN_IF_ERROR(s.Checkpoint());
  }
  SQOPT_RETURN_IF_ERROR(WriteManifest(st, st.dir));
  SQOPT_RETURN_IF_ERROR(st.coord_log->Truncate(/*fsync=*/true));
  st.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::string ShardedEngine::persist_dir() const {
  std::shared_lock lock(state_->data_lock);
  return state_->dir;
}

Result<ShardedEngine> ShardedEngine::Open(const std::string& dir,
                                          ShardOptions options) {
  SQOPT_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dir));
  options.shards = manifest.shards;
  const int n = manifest.shards;

  // Reopen every shard; each replays its own (non-fsynced) WAL first.
  const EngineOptions shard_opts = ShardEngineOptions(options.engine);
  std::vector<Engine> shards;
  shards.reserve(static_cast<size_t>(n));
  std::vector<uint64_t> v0(static_cast<size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    SQOPT_ASSIGN_OR_RETURN(Engine s,
                           Engine::Open(ShardDirName(dir, k), shard_opts));
    v0[static_cast<size_t>(k)] = s.data_version();
    if (v0[static_cast<size_t>(k)] <
        manifest.shard_versions[static_cast<size_t>(k)]) {
      return Status::Corruption("shard " + std::to_string(k) +
                                " is behind the manifest baseline");
    }
    shards.push_back(std::move(s));
  }

  // Rebuild the planning head's catalog from shard 0 (all shards carry
  // identical schema + base constraints).
  const ConstraintCatalog& cat0 = shards[0].catalog();
  std::vector<HornClause> base_clauses(
      cat0.clauses().begin(),
      cat0.clauses().begin() + static_cast<ptrdiff_t>(cat0.num_base()));
  SQOPT_ASSIGN_OR_RETURN(
      Engine head,
      Engine::Open(SchemaSource(Schema(shards[0].schema())),
                   ConstraintSource::FromClauses(std::move(base_clauses)),
                   options.engine));

  auto state = std::make_shared<State>(std::move(options), std::move(head),
                                       std::move(shards));
  State& st = *state;

  // Routing tables from the manifest digits: local ids rank same-shard
  // rows in ascending global order (the allocation invariant).
  const size_t num_classes = manifest.routing.size();
  if (num_classes != st.head.schema().num_classes()) {
    return Status::Corruption("manifest class count mismatch");
  }
  st.shard_of.assign(num_classes, {});
  st.local_row.assign(num_classes, {});
  st.global_row.assign(static_cast<size_t>(n),
                       std::vector<std::vector<int64_t>>(num_classes));
  for (size_t c = 0; c < num_classes; ++c) {
    const std::string& digits = manifest.routing[c];
    st.shard_of[c].reserve(digits.size());
    st.local_row[c].reserve(digits.size());
    for (size_t g = 0; g < digits.size(); ++g) {
      const int k = static_cast<int>(std::strchr(kShardDigits, digits[g]) -
                                     kShardDigits);
      st.shard_of[c].push_back(static_cast<int8_t>(k));
      st.local_row[c].push_back(
          static_cast<int64_t>(st.global_row[k][c].size()));
      st.global_row[k][c].push_back(static_cast<int64_t>(g));
    }
  }

  // Replay the coordinator log's committed suffix. Every non-empty
  // sub-batch advances the shard's EXPECTED version; the shard applies
  // it only when the expectation passes the version its own replay
  // already reached — the convergence rule that makes every crash
  // window (mid-dispatch included) land on the manifest's committed
  // prefix.
  const std::string wal_path =
      (fs::path(dir) / kCoordWalFileName).string();
  SQOPT_ASSIGN_OR_RETURN(persist::WalReadResult log,
                         persist::ReadWal(wal_path));
  std::vector<uint64_t> expected = manifest.shard_versions;
  uint64_t gv = manifest.version;
  for (const persist::WalRecord& record : log.records) {
    bool used = false;
    for (size_t i = 0; i < record.batches.size(); ++i) {
      const uint64_t v = record.first_version + i;
      if (v <= manifest.version) continue;  // pre-checkpoint history
      if (v != gv + 1) {
        return Status::Corruption("coordinator log version gap at " +
                                  std::to_string(v));
      }
      const MutationBatch& batch = record.batches[i];
      SQOPT_ASSIGN_OR_RETURN(SplitBatch split, Split(st, batch));
      std::vector<std::vector<int64_t>> shard_inserted(
          static_cast<size_t>(n));
      for (int k = 0; k < n; ++k) {
        if (split.sub[static_cast<size_t>(k)].empty()) continue;
        uint64_t& e = expected[static_cast<size_t>(k)];
        ++e;
        if (e > v0[static_cast<size_t>(k)]) {
          Result<ApplyOutcome> r = st.shards[static_cast<size_t>(k)].Apply(
              split.sub[static_cast<size_t>(k)]);
          if (!r.ok()) {
            return Status::Corruption(
                "coordinator replay rejected on shard " +
                std::to_string(k) + ": " + r.status().message());
          }
        }
      }
      // Extend routing deterministically (slot allocation is
      // append-only on every side, applied or skipped alike).
      std::vector<size_t> dummy;
      for (size_t j = 0; j < split.insert_shard.size(); ++j) {
        const int k = split.insert_shard[j];
        const ClassId cid = split.insert_class[j];
        st.shard_of[cid].push_back(static_cast<int8_t>(k));
        st.local_row[cid].push_back(
            static_cast<int64_t>(st.global_row[k][cid].size()));
        st.global_row[k][cid].push_back(
            static_cast<int64_t>(st.shard_of[cid].size()) - 1);
      }
      (void)dummy;
      gv = v;
      used = true;
      st.committed_batches.fetch_add(1, std::memory_order_relaxed);
    }
    if (used) {
      st.coord_records_replayed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (int k = 0; k < n; ++k) {
    const uint64_t want =
        std::max(expected[static_cast<size_t>(k)], v0[static_cast<size_t>(k)]);
    if (st.shards[static_cast<size_t>(k)].data_version() != want) {
      return Status::Corruption("shard " + std::to_string(k) +
                                " did not converge to the committed prefix");
    }
    if (v0[static_cast<size_t>(k)] > expected[static_cast<size_t>(k)]) {
      return Status::Corruption("shard " + std::to_string(k) +
                                " is ahead of the coordinator log");
    }
  }

  // Rebuild the head's global store from the recovered shards: every
  // global slot materializes from its shard (post-load tombstones are
  // re-tombstoned so slot counts and row ids match the pre-crash
  // global store), then relationship instances re-link through the
  // routing maps.
  {
    auto global = std::make_unique<ObjectStore>(&st.head.schema());
    for (size_t c = 0; c < num_classes; ++c) {
      const ClassId cid = static_cast<ClassId>(c);
      for (size_t g = 0; g < st.shard_of[c].size(); ++g) {
        const int k = st.shard_of[c][g];
        const int64_t local = st.local_row[c][g];
        const ObjectStore* shard_store =
            st.shards[static_cast<size_t>(k)].store();
        Object obj = shard_store->extent(cid).MaterializeRow(local);
        SQOPT_ASSIGN_OR_RETURN(const int64_t got,
                               global->Insert(cid, std::move(obj)));
        if (got != static_cast<int64_t>(g)) {
          return Status::Internal("head rebuild: slot misallocation");
        }
        if (!shard_store->IsLive(cid, local)) {
          SQOPT_RETURN_IF_ERROR(global->Delete(cid, got));
        }
      }
    }
    const Schema& schema = st.head.schema();
    for (size_t r = 0; r < schema.num_relationships(); ++r) {
      const RelId rid = static_cast<RelId>(r);
      const Relationship& rel = schema.relationship(rid);
      for (int k = 0; k < n; ++k) {
        const ObjectStore* shard_store =
            st.shards[static_cast<size_t>(k)].store();
        for (const auto& [a, b] : shard_store->Pairs(rid)) {
          SQOPT_RETURN_IF_ERROR(global->Link(
              rid, st.global_row[static_cast<size_t>(k)][rel.a][a],
              st.global_row[static_cast<size_t>(k)][rel.b][b]));
        }
      }
    }
    SQOPT_RETURN_IF_ERROR(
        st.head.Load(DataSource::FromStore(std::move(global))));
  }

  st.loaded = true;
  st.global_version = gv;
  st.version_offset = gv - st.head.data_version();
  st.dir = dir;
  SQOPT_ASSIGN_OR_RETURN(st.coord_log,
                         persist::WalWriter::Open(wal_path, log.valid_bytes));
  return ShardedEngine(std::move(state));
}

// ---------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------

EngineStats ShardedEngine::stats() const {
  const State& st = *state_;
  std::shared_lock lock(st.data_lock);
  // Planning counters (parses, analyzes, prepares) come from the head;
  // per-shard work sums; coordinator events count once.
  EngineStats out = st.head.stats();
  out.queries_executed =
      st.queries_executed.load(std::memory_order_relaxed);
  out.contradictions = st.contradictions.load(std::memory_order_relaxed);
  out.mutation_batches_applied =
      st.committed_batches.load(std::memory_order_relaxed);
  out.mutation_batches_rejected +=
      st.precheck_rejected.load(std::memory_order_relaxed);
  out.checkpoints = st.checkpoints.load(std::memory_order_relaxed);
  out.mutation_ops_applied = 0;
  out.stats_recollections = 0;
  out.wal_records_replayed =
      st.coord_records_replayed.load(std::memory_order_relaxed);
  for (const Engine& s : st.shards) {
    const EngineStats ss = s.stats();
    out.mutation_ops_applied += ss.mutation_ops_applied;
    out.wal_records_replayed += ss.wal_records_replayed;
    out.stats_recollections += ss.stats_recollections;
  }
  return out;
}

PlanCacheStats ShardedEngine::plan_cache_stats() const {
  return state_->head.plan_cache_stats();
}

bool ShardedEngine::has_data() const {
  std::shared_lock lock(state_->data_lock);
  return state_->loaded;
}

const Schema& ShardedEngine::schema() const { return state_->head.schema(); }

const ObjectStore* ShardedEngine::store() const {
  return state_->head.store();
}

uint64_t ShardedEngine::data_version() const {
  std::shared_lock lock(state_->data_lock);
  return state_->loaded ? state_->global_version : 0;
}

int ShardedEngine::num_shards() const {
  return static_cast<int>(state_->shards.size());
}

int ShardedEngine::ShardOfRow(ClassId class_id, int64_t global_row) const {
  const State& st = *state_;
  std::shared_lock lock(st.data_lock);
  if (!st.loaded || class_id < 0 ||
      class_id >= static_cast<ClassId>(st.shard_of.size()) ||
      global_row < 0 ||
      global_row >= static_cast<int64_t>(st.shard_of[class_id].size())) {
    return -1;
  }
  return st.shard_of[class_id][global_row];
}

}  // namespace sqopt::shard
