// Seeded randomized differential fuzzer for the transactional write
// path: interleaved query/mutation schedules against one Engine, with
// every query checked after every commit against TWO oracles —
//
//   1. reference_executor: brute-force evaluation of the ORIGINAL
//      query over the engine's current snapshot (catches semantic-
//      optimizer unsoundness and executor bugs against mutated data);
//   2. a naive re-Load oracle: a second Engine freshly Load()ed from a
//      deep clone of a shadow store that replayed the same committed
//      batches (catches divergence of the incrementally maintained
//      indexes / statistics / histograms from scratch-built state).
//
// The generator produces constraint-consistent mutations (the segment
// value model of workload/dbgen), plus deliberate violations that must
// be rejected with kConstraintViolation and leave the snapshot version
// untouched. Everything derives from one fixed seed, printed on any
// failure via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "exec/reference_executor.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

constexpr uint64_t kSeed = 20260729;
const DbSpec kSpec{"mutation_fuzz", 40, 60};

// Round budget: PR CI runs the defaults; the nightly soak workflow
// scales both schedules up via SQOPT_FUZZ_ROUNDS (7500 rounds of
// schedule A ≈ 50k+ operations) without touching the code.
int RoundsFromEnv(int default_rounds) {
  const char* env = std::getenv("SQOPT_FUZZ_ROUNDS");
  if (env == nullptr) return default_rounds;
  const int rounds = std::atoi(env);
  return rounds > 0 ? rounds : default_rounds;
}

// Replays a batch onto a plain mutable store with the same pending-
// insert handle resolution Engine::Apply uses. The shadow store is the
// raw material of the re-Load oracle.
Status ApplyToShadow(ObjectStore& store, const MutationBatch& batch,
                     std::vector<int64_t>* inserted) {
  auto resolve = [&](int64_t row) {
    return row >= 0 ? row : (*inserted)[static_cast<size_t>(-1 - row)];
  };
  for (const Mutation& op : batch.ops()) {
    switch (op.kind) {
      case Mutation::Kind::kInsert: {
        SQOPT_ASSIGN_OR_RETURN(int64_t row,
                               store.Insert(op.class_id, op.object));
        inserted->push_back(row);
        break;
      }
      case Mutation::Kind::kUpdate:
        SQOPT_RETURN_IF_ERROR(store.UpdateAttribute(
            op.class_id, resolve(op.row), op.attr_id, op.value));
        break;
      case Mutation::Kind::kDelete:
        SQOPT_RETURN_IF_ERROR(store.Delete(op.class_id, resolve(op.row)));
        break;
      case Mutation::Kind::kLink:
        SQOPT_RETURN_IF_ERROR(store.Link(op.rel_id, resolve(op.row_a),
                                         resolve(op.row_b)));
        break;
      case Mutation::Kind::kUnlink:
        SQOPT_RETURN_IF_ERROR(store.Unlink(op.rel_id, resolve(op.row_a),
                                           resolve(op.row_b)));
        break;
    }
  }
  return Status::OK();
}

// The fuzz driver shared by every schedule.
class MutationFuzzer {
 public:
  MutationFuzzer(Engine* engine, uint64_t seed)
      : engine_(engine), schema_(engine->schema()), rng_(seed) {
    supplier_ = schema_.FindClass("supplier");
    cargo_ = schema_.FindClass("cargo");
    vehicle_ = schema_.FindClass("vehicle");
    driver_ = schema_.FindClass("driver");
    department_ = schema_.FindClass("department");
    class_order_ = {supplier_, cargo_, vehicle_, driver_, department_};

    auto shadow = GenerateDatabase(schema_, kSpec, kSeed);
    EXPECT_TRUE(shadow.ok());
    shadow_ = std::move(*shadow);

    segments_.resize(schema_.num_classes());
    for (ClassId cid : class_order_) {
      for (int64_t row = 0; row < shadow_->NumObjects(cid); ++row) {
        segments_[cid].push_back(SegmentOfRow(row));
      }
    }

    auto oracle = Engine::Open(SchemaSource::Experiment(),
                               ConstraintSource::Experiment());
    EXPECT_TRUE(oracle.ok());
    oracle_.emplace(std::move(*oracle));
  }

  uint64_t operations() const { return operations_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t rejected() const { return rejected_; }

  // One committed (or rejected) batch + its bookkeeping.
  void MutateRound(bool allow_structure_changes) {
    if (rng_.Bernoulli(0.08)) {
      ApplyViolatingOp();
      return;
    }
    MutationBatch batch;
    batch_dead_.clear();
    batch_links_.clear();
    batch_unlinks_.clear();
    const int ops = static_cast<int>(rng_.UniformInt(1, 3));
    for (int i = 0; i < ops; ++i) {
      StageValidOp(&batch, allow_structure_changes);
    }
    if (batch.empty()) return;

    ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine_->Apply(batch));
    std::vector<int64_t> shadow_inserted;
    ASSERT_OK(ApplyToShadow(*shadow_, batch, &shadow_inserted));
    ASSERT_EQ(out.inserted_rows, shadow_inserted)
        << "engine and shadow disagree on inserted row ids";
    operations_ += batch.size();

    // The engine's committed snapshot and the shadow replay must agree
    // on cardinalities (cheap invariant; full-state agreement is what
    // the query differentials below establish).
    for (ClassId cid : class_order_) {
      ASSERT_EQ(engine_->store()->NumLiveObjects(cid),
                shadow_->NumLiveObjects(cid));
    }
    for (const Relationship& rel : schema_.relationships()) {
      ASSERT_EQ(engine_->store()->NumPairs(rel.id),
                shadow_->NumPairs(rel.id));
    }
  }

  // Runs `text` through the optimized engine, the brute-force
  // reference, and (when `with_reload_oracle`) a fresh Load of the
  // shadow, requiring identical distinct rows everywhere.
  void CheckQuery(const std::string& text, bool with_reload_oracle) {
    ASSERT_OK_AND_ASSIGN(QueryOutcome opt, engine_->Execute(text));
    if (opt.plan_cache_hit) ++cache_hits_;
    ++operations_;

    ASSERT_OK_AND_ASSIGN(Query query, engine_->Parse(text));
    ASSERT_OK_AND_ASSIGN(ResultSet reference,
                         ExecuteReference(*engine_->store(), query));
    ++operations_;
    ASSERT_TRUE(opt.rows.SameDistinctRows(reference))
        << "optimized executor diverged from reference_executor on: "
        << text << " (optimized " << opt.rows.rows.size()
        << " rows, reference " << reference.rows.size() << ")";

    if (with_reload_oracle) {
      ASSERT_OK(oracle_->Load(DataSource::FromStore(
          shadow_->CloneForWrite())));
      ASSERT_OK_AND_ASSIGN(QueryOutcome fresh, oracle_->Execute(text));
      ++operations_;
      ASSERT_TRUE(opt.rows.SameDistinctRows(fresh.rows))
          << "incrementally-maintained engine diverged from the "
          << "re-Load oracle on: " << text;
    }
  }

 private:
  int64_t PickLiveRow(ClassId cid, int want_segment) {
    std::vector<int64_t> candidates;
    const auto& seg = segments_[cid];
    for (int64_t row = 0; row < static_cast<int64_t>(seg.size()); ++row) {
      if (seg[row] < 0) continue;
      if (want_segment >= 0 && seg[row] != want_segment) continue;
      // Rows a delete earlier in this batch will tombstone are off
      // limits: a later op naming one would (correctly) fail the whole
      // batch, which is not what a VALID schedule stages.
      if (batch_dead_.count({cid, row}) > 0) continue;
      candidates.push_back(row);
    }
    if (candidates.empty()) return -1;
    return candidates[rng_.Index(candidates.size())];
  }

  // A segment-consistent value for one mutable attribute of `cid`.
  // Attributes that other constraints pin (desc, region, vclass, ...)
  // are never touched; name-like and range attributes vary freely
  // within the segment's legal range.
  bool StageSegmentUpdate(MutationBatch* batch, ClassId cid) {
    int64_t row = PickLiveRow(cid, -1);
    if (row < 0) return false;
    int seg = segments_[cid][row];
    auto attr = [&](const char* name) {
      return schema_.FindAttribute(cid, name).attr_id;
    };
    if (cid == supplier_) {
      if (rng_.Bernoulli(0.5)) {
        batch->Update(cid, row, attr("name"),
                      Value::String("s" + std::to_string(rng_.Next() % 997)));
      } else {
        batch->Update(cid, row, attr("rating"),
                      Value::Int(seg == 0 ? rng_.UniformInt(8, 10)
                                          : rng_.UniformInt(1, 7)));
      }
    } else if (cid == cargo_) {
      switch (rng_.Index(3)) {
        case 0:
          batch->Update(cid, row, attr("code"),
                        Value::String("c" + std::to_string(rng_.Next() % 997)));
          break;
        case 1:
          batch->Update(cid, row, attr("quantity"),
                        Value::Int(seg == 0 ? rng_.UniformInt(1, 499)
                                            : rng_.UniformInt(500, 1000)));
          break;
        default:
          batch->Update(cid, row, attr("weight"),
                        Value::Int(seg == 0 ? rng_.UniformInt(10, 40)
                                            : rng_.UniformInt(41, 100)));
      }
    } else if (cid == vehicle_) {
      if (rng_.Bernoulli(0.5)) {
        batch->Update(cid, row, attr("vehicleNo"),
                      Value::Int(rng_.UniformInt(200000, 299999)));
      } else {
        batch->Update(cid, row, attr("capacity"),
                      Value::Int(seg <= 1 ? rng_.UniformInt(20, 50)
                                          : rng_.UniformInt(5, 19)));
      }
    } else if (cid == driver_) {
      batch->Update(cid, row, attr("name"),
                    Value::String("d" + std::to_string(rng_.Next() % 997)));
    } else {
      batch->Update(cid, row, attr("budget"),
                    Value::Int(seg == 0 ? rng_.UniformInt(100000, 200000)
                                        : rng_.UniformInt(10000, 99999)));
    }
    return true;
  }

  // One full "world": an object per class, one segment, linked
  // diagonally across all 6 relationships — exactly the shape
  // GenerateDatabase produces, so totality (and with it class
  // elimination) is preserved.
  void StageWorldInsert(MutationBatch* batch) {
    int seg = static_cast<int>(rng_.Index(kNumSegments));
    int64_t ordinal = next_ordinal_++;
    std::vector<int64_t> handle(schema_.num_classes(), -1);
    for (ClassId cid : class_order_) {
      auto obj = MakeSegmentObject(schema_, cid, seg, ordinal);
      ASSERT_TRUE(obj.ok()) << obj.status().ToString();
      handle[cid] = batch->Insert(cid, std::move(*obj));
      pending_segments_.push_back({cid, seg});
    }
    for (const Relationship& rel : schema_.relationships()) {
      batch->Link(rel.id, handle[rel.a], handle[rel.b]);
    }
  }

  void StageValidOp(MutationBatch* batch, bool allow_structure_changes) {
    const double roll = rng_.UniformDouble();
    ClassId cid = class_order_[rng_.Index(class_order_.size())];
    const bool crowded = shadow_->NumLiveObjects(cid) > 240;

    if (!allow_structure_changes) {
      // Elimination schedule: only totality-preserving mutations.
      if (roll < 0.25 && !crowded) {
        StageWorldInsert(batch);
      } else {
        StageSegmentUpdate(batch, cid);
      }
      return;
    }
    if (roll < 0.07 && !crowded) {
      StageWorldInsert(batch);
    } else if (roll < 0.20 && !crowded) {
      // Unlinked single insert: legal because the query pool projects
      // or predicates every class (class elimination can't fire).
      int seg = static_cast<int>(rng_.Index(kNumSegments));
      auto obj = MakeSegmentObject(schema_, cid, seg, next_ordinal_++);
      ASSERT_TRUE(obj.ok()) << obj.status().ToString();
      batch->Insert(cid, std::move(*obj));
      pending_segments_.push_back({cid, seg});
    } else if (roll < 0.35) {
      int64_t row = PickLiveRow(cid, -1);
      if (row >= 0) {
        batch->Delete(cid, row);
        batch_dead_.insert({cid, row});
        pending_deletes_.push_back({cid, row});
      }
    } else if (roll < 0.45) {
      // Same-segment link between existing rows.
      const Relationship& rel =
          schema_.relationship(static_cast<RelId>(
              rng_.Index(schema_.num_relationships())));
      int seg = static_cast<int>(rng_.Index(kNumSegments));
      int64_t a = PickLiveRow(rel.a, seg);
      int64_t b = PickLiveRow(rel.b, seg);
      if (a < 0 || b < 0) return;
      std::span<const int64_t> partners =
          shadow_->Partners(rel.id, rel.a, a);
      if (std::find(partners.begin(), partners.end(), b) !=
          partners.end()) {
        return;  // already linked; skip rather than stage a duplicate
      }
      if (!batch_links_.insert({rel.id, a, b}).second) return;
      batch->Link(rel.id, a, b);
    } else if (roll < 0.52) {
      // Unlink an existing pair.
      const Relationship& rel =
          schema_.relationship(static_cast<RelId>(
              rng_.Index(schema_.num_relationships())));
      int64_t a = PickLiveRow(rel.a, -1);
      if (a < 0) return;
      std::span<const int64_t> partners =
          shadow_->Partners(rel.id, rel.a, a);
      if (partners.empty()) return;
      int64_t b = partners[rng_.Index(partners.size())];
      if (batch_dead_.count({rel.b, b}) > 0) return;  // cascade got it
      if (!batch_unlinks_.insert({rel.id, a, b}).second) return;
      batch->Unlink(rel.id, a, b);
    } else {
      StageSegmentUpdate(batch, cid);
    }
  }

  // A write the validator must reject; the snapshot version and the
  // shadow stay untouched.
  void ApplyViolatingOp() {
    const uint64_t version = engine_->data_version();
    MutationBatch batch;
    switch (rng_.Index(3)) {
      case 0: {  // i1: rating >= 8 -> region = west, on a non-west row
        int64_t row = PickLiveRow(supplier_, 1 + static_cast<int>(
                                                 rng_.Index(3)));
        if (row < 0) return;
        batch.Update(supplier_, row,
                     schema_.FindAttribute(supplier_, "rating").attr_id,
                     Value::Int(9));
        break;
      }
      case 1: {  // i2: frozen food -> weight <= 40
        int64_t row = PickLiveRow(cargo_, 0);
        if (row < 0) return;
        batch.Update(cargo_, row,
                     schema_.FindAttribute(cargo_, "weight").attr_id,
                     Value::Int(80));
        break;
      }
      default: {  // x3 via a cross-segment collects link
        RelId collects = schema_.FindRelationship("collects");
        int64_t c = PickLiveRow(cargo_, 0);
        int64_t v = PickLiveRow(vehicle_, 1);
        if (c < 0 || v < 0) return;
        batch.Link(collects, c, v);
        break;
      }
    }
    auto result = engine_->Apply(batch);
    ++operations_;
    ASSERT_FALSE(result.ok())
        << "validator accepted a constraint-violating write";
    ASSERT_EQ(result.status().code(), StatusCode::kConstraintViolation)
        << result.status().ToString();
    ASSERT_EQ(engine_->data_version(), version)
        << "rejected batch still published a snapshot";
    ++rejected_;
  }

 public:
  // Row-id bookkeeping that must happen AFTER a commit succeeds.
  void SettleBookkeeping() {
    for (const auto& [cid, seg] : pending_segments_) {
      segments_[cid].push_back(seg);
    }
    pending_segments_.clear();
    for (const auto& [cid, row] : pending_deletes_) {
      segments_[cid][row] = -1;
    }
    pending_deletes_.clear();
  }

 private:
  Engine* engine_;
  const Schema& schema_;
  Rng rng_;
  std::unique_ptr<ObjectStore> shadow_;
  std::optional<Engine> oracle_;
  std::vector<std::vector<int>> segments_;  // class -> row -> segment, -1 dead
  std::vector<std::pair<ClassId, int>> pending_segments_;
  std::vector<std::pair<ClassId, int64_t>> pending_deletes_;
  std::set<std::pair<ClassId, int64_t>> batch_dead_;
  std::set<std::tuple<RelId, int64_t, int64_t>> batch_links_;
  std::set<std::tuple<RelId, int64_t, int64_t>> batch_unlinks_;
  std::vector<ClassId> class_order_;
  ClassId supplier_, cargo_, vehicle_, driver_, department_;
  int64_t next_ordinal_ = 0;
  uint64_t operations_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t rejected_ = 0;
};

// Schedule A's query pool: every query projects or predicates every
// class it touches, so every semantic transformation except class
// elimination is fair game whatever the relationship structure.
std::vector<std::string> FullOpQueryPool() {
  return {
      "{supplier.name} {} {supplier.rating >= 8} {} {supplier}",
      "{cargo.code} {} {cargo.weight <= 40} {} {cargo}",
      "{supplier.name, cargo.code} {} {cargo.desc = \"frozen food\"} "
      "{supplies} {supplier, cargo}",
      "{cargo.code, vehicle.vehicleNo} {} "
      "{vehicle.desc = \"refrigerated truck\"} {collects} {cargo, vehicle}",
      "{driver.name, department.name} {} {department.securityClass >= 4} "
      "{belongsTo} {driver, department}",
  };
}

Engine OpenLoadedEngine() {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  Engine engine = std::move(opened).value();
  EXPECT_OK(engine.Load(DataSource::Generated(kSpec, kSeed)));
  return engine;
}

// Schedule A: the full op mix (inserts, updates, deletes, links,
// unlinks, violations) against queries that project or predicate every
// class they touch, so every semantic transformation except class
// elimination is fair game whatever the relationship structure.
TEST(MutationFuzzTest, InterleavedDifferentialSchedule) {
  SCOPED_TRACE(::testing::Message() << "fuzz seed=" << kSeed);
  Engine engine = OpenLoadedEngine();
  MutationFuzzer fuzz(&engine, kSeed);

  const std::vector<std::string> pool = FullOpQueryPool();
  const std::string three_class =
      "{supplier.name, cargo.code, vehicle.vehicleNo} {} "
      "{cargo.weight <= 40} {supplies, collects} "
      "{supplier, cargo, vehicle}";

  Rng pick(kSeed ^ 0xABCD);
  const int kRounds = RoundsFromEnv(800);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message()
                 << "round=" << round << " seed=" << kSeed);
    fuzz.MutateRound(/*allow_structure_changes=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    fuzz.SettleBookkeeping();
    const bool reload_oracle = round % 5 == 0;
    fuzz.CheckQuery(pool[pick.Index(pool.size())], reload_oracle);
    if (::testing::Test::HasFatalFailure()) return;
    fuzz.CheckQuery(pool[pick.Index(pool.size())], false);
    if (::testing::Test::HasFatalFailure()) return;
    if (round % 25 == 0) {
      fuzz.CheckQuery(three_class, false);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(fuzz.operations(), 5000u)
      << "schedule shrank below the acceptance floor";
  EXPECT_GT(fuzz.cache_hits(), 0u)
      << "no query ever hit the plan cache: threshold epoching broken?";
  EXPECT_GT(fuzz.rejected(), 0u)
      << "no violating write was ever generated";
  EXPECT_GT(engine.stats().mutation_batches_applied, 0u);
}

// Schedule B: totality-preserving mutations only (world inserts +
// segment updates) against dangling-class queries, so CLASS ELIMINATION
// fires and must stay sound as the database grows and drifts.
TEST(MutationFuzzTest, ClassEliminationStaysSoundUnderMutation) {
  SCOPED_TRACE(::testing::Message() << "fuzz seed=" << kSeed);
  Engine engine = OpenLoadedEngine();
  MutationFuzzer fuzz(&engine, kSeed + 1);

  // supplier / driver dangle: no predicate, no projection — the
  // optimizer may (and does) eliminate them when profitable.
  const std::vector<std::string> pool = {
      "{cargo.code} {} {cargo.desc = \"frozen food\"} {supplies} "
      "{supplier, cargo}",
      "{vehicle.vehicleNo} {} {vehicle.capacity >= 20} {drives} "
      "{driver, vehicle}",
      "{department.name} {} {department.securityClass >= 4} {belongsTo} "
      "{driver, department}",
  };

  Rng pick(kSeed ^ 0x5EED);
  const int kRounds = RoundsFromEnv(250);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message()
                 << "round=" << round << " seed=" << kSeed + 1);
    fuzz.MutateRound(/*allow_structure_changes=*/false);
    if (::testing::Test::HasFatalFailure()) return;
    fuzz.SettleBookkeeping();
    fuzz.CheckQuery(pool[pick.Index(pool.size())], round % 5 == 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(fuzz.operations(), 1000u);
}

}  // namespace
}  // namespace sqopt
