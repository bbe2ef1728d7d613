// Engine::Apply unit coverage: transactional visibility, pending-insert
// handles, incremental index/statistics maintenance on the
// copy-on-write clone, constraint validation with typed rejection, and
// atomicity of failed batches (nothing published, down to the snapshot
// version).
#include "api/mutation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/engine.h"
#include "exec/reference_executor.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

constexpr uint64_t kSeed = 20260729;
const DbSpec kSpec{"mutation_test", 40, 60};

const char* kRatingQuery =
    "{supplier.name} {} {supplier.rating >= 8} {} {supplier}";
const char* kSuppliesQuery =
    "{supplier.name, cargo.code} {} {} {supplies} {supplier, cargo}";

Engine OpenLoadedEngine(EngineOptions options = {}) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment(),
                             std::move(options));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  Engine engine = std::move(opened).value();
  Status s = engine.Load(DataSource::Generated(kSpec, kSeed));
  EXPECT_TRUE(s.ok()) << s.ToString();
  return engine;
}

size_t RowCount(Engine& engine, const char* query) {
  auto out = engine.Execute(query);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out->rows.rows.size() : 0;
}

TEST(ApplyTest, RequiresLoad) {
  ASSERT_OK_AND_ASSIGN(Engine engine,
                       Engine::Open(SchemaSource::Experiment(),
                                    ConstraintSource::Experiment()));
  MutationBatch batch;
  batch.Delete(0, 0);
  auto result = engine.Apply(batch);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ApplyTest, EmptyBatchIsNoOpCommit) {
  Engine engine = OpenLoadedEngine();
  EXPECT_EQ(engine.data_version(), 1u);
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(MutationBatch{}));
  EXPECT_EQ(out.snapshot_version, 1u);
  EXPECT_EQ(engine.data_version(), 1u);
  EXPECT_EQ(engine.stats().mutation_batches_applied, 0u);
}

TEST(ApplyTest, InsertIsVisibleToSubsequentQueries) {
  Engine engine = OpenLoadedEngine();
  const size_t before = RowCount(engine, kRatingQuery);

  ClassId supplier = engine.schema().FindClass("supplier");
  ASSERT_OK_AND_ASSIGN(
      Object obj, MakeSegmentObject(engine.schema(), supplier,
                                    /*segment=*/0, /*ordinal=*/1));
  MutationBatch batch;
  batch.Insert(supplier, std::move(obj));
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(batch));
  EXPECT_EQ(out.inserts, 1u);
  EXPECT_EQ(out.inserted_rows.size(), 1u);
  EXPECT_EQ(out.snapshot_version, 2u);
  EXPECT_EQ(engine.data_version(), 2u);

  // Segment-0 suppliers have rating >= 8, so the row count moves.
  EXPECT_EQ(RowCount(engine, kRatingQuery), before + 1);
  EXPECT_EQ(engine.stats().mutation_batches_applied, 1u);
  EXPECT_EQ(engine.stats().mutation_ops_applied, 1u);

  // Incremental statistics followed the commit.
  EXPECT_EQ(engine.database_stats()->ClassCardinality(supplier),
            kSpec.class_cardinality + 1);
}

TEST(ApplyTest, PendingInsertHandlesResolveAcrossOps) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  ClassId cargo = schema.FindClass("cargo");
  RelId supplies = schema.FindRelationship("supplies");
  const size_t pairs_before = RowCount(engine, kSuppliesQuery);

  MutationBatch batch;
  ASSERT_OK_AND_ASSIGN(Object s,
                       MakeSegmentObject(schema, supplier, 0, 7));
  ASSERT_OK_AND_ASSIGN(Object c, MakeSegmentObject(schema, cargo, 0, 7));
  int64_t hs = batch.Insert(supplier, std::move(s));
  int64_t hc = batch.Insert(cargo, std::move(c));
  EXPECT_LT(hs, 0);
  EXPECT_LT(hc, 0);
  batch.Link(supplies, hs, hc);

  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(batch));
  ASSERT_EQ(out.inserted_rows.size(), 2u);
  EXPECT_EQ(out.links, 1u);
  const int64_t supplier_row = out.inserted_rows[0];
  const int64_t cargo_row = out.inserted_rows[1];
  std::span<const int64_t> partners =
      engine.store()->Partners(supplies, supplier, supplier_row);
  ASSERT_EQ(partners.size(), 1u);
  EXPECT_EQ(partners[0], cargo_row);
  EXPECT_EQ(RowCount(engine, kSuppliesQuery), pairs_before + 1);
}

TEST(ApplyTest, UpdateMaintainsIndexOnTheClone) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  AttrRef name = schema.ResolveQualified("supplier.name").value();
  // A prepared handle pins the pre-commit snapshot (its creation-time
  // data pin), keeping the old store alive for the isolation check.
  ASSERT_OK_AND_ASSIGN(PreparedQuery pin, engine.Prepare(kRatingQuery));
  const ObjectStore* old_store = engine.store();

  MutationBatch batch;
  batch.Update(supplier, 0, name.attr_id, Value::String("acme"));
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(batch));
  EXPECT_EQ(out.updates, 1u);

  // The indexed lookup on the NEW snapshot finds the renamed row...
  EXPECT_EQ(RowCount(engine,
                     "{supplier.region} {} {supplier.name = \"acme\"} "
                     "{} {supplier}"),
            1u);
  // ...while the old snapshot's index (shared structure cloned, not
  // mutated) still answers with the original name.
  const AttributeIndex* old_index = old_store->GetIndex(name);
  ASSERT_NE(old_index, nullptr);
  EXPECT_TRUE(old_index->Equal(Value::String("acme")).empty());
  EXPECT_EQ(old_index->Equal(Value::String("supplier-0")).size(), 1u);
}

TEST(ApplyTest, DeleteRemovesRowLinksAndIndexEntries) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId cargo = schema.FindClass("cargo");
  RelId supplies = schema.FindRelationship("supplies");
  AttrRef code = schema.ResolveQualified("cargo.code").value();
  const size_t pairs_before = RowCount(engine, kSuppliesQuery);
  const size_t cargo0_partners =
      engine.store()->Partners(supplies, cargo, 0).size();
  ASSERT_GT(cargo0_partners, 0u);  // diagonal link guarantees >= 1

  MutationBatch batch;
  batch.Delete(cargo, 0);
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(batch));
  EXPECT_EQ(out.deletes, 1u);

  const ObjectStore& store = *engine.store();
  EXPECT_FALSE(store.IsLive(cargo, 0));
  EXPECT_EQ(store.NumLiveObjects(cargo), kSpec.class_cardinality - 1);
  EXPECT_EQ(store.NumObjects(cargo), kSpec.class_cardinality);  // slot stays
  EXPECT_TRUE(store.Partners(supplies, cargo, 0).empty());
  EXPECT_TRUE(
      store.GetIndex(code)->Equal(Value::String("cargo-0")).empty());
  EXPECT_EQ(RowCount(engine, kSuppliesQuery),
            pairs_before - cargo0_partners);

  // Planned and brute-force execution agree on the post-delete store.
  ASSERT_OK_AND_ASSIGN(QueryOutcome planned,
                       engine.Execute(kSuppliesQuery));
  ASSERT_OK_AND_ASSIGN(
      ResultSet reference,
      ExecuteReference(store, planned.original));
  EXPECT_TRUE(planned.rows.SameDistinctRows(reference));
}

TEST(ApplyTest, IntraClassViolationRejectedAtomically) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  AttrRef rating = schema.ResolveQualified("supplier.rating").value();
  AttrRef name = schema.ResolveQualified("supplier.name").value();
  const size_t before = RowCount(engine, kRatingQuery);
  const uint64_t version = engine.data_version();

  // Row 1 is segment 1 (region north): pushing its rating to 9 breaks
  // i1 (rating >= 8 -> region = west). The batch's earlier valid op
  // must be rolled back with it.
  MutationBatch batch;
  batch.Update(supplier, 0, name.attr_id, Value::String("acme"));
  batch.Update(supplier, 1, rating.attr_id, Value::Int(9));
  auto result = engine.Apply(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
  EXPECT_NE(result.status().message().find("i1"), std::string::npos)
      << result.status().ToString();

  EXPECT_EQ(engine.data_version(), version);
  EXPECT_EQ(RowCount(engine, kRatingQuery), before);
  EXPECT_TRUE(engine.store()
                  ->GetIndex(name)
                  ->Equal(Value::String("acme"))
                  .empty());
  EXPECT_EQ(engine.stats().mutation_batches_applied, 0u);
  EXPECT_EQ(engine.stats().mutation_batches_rejected, 1u);
}

TEST(ApplyTest, InterClassViolationViaLinkRejected) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  RelId collects = schema.FindRelationship("collects");
  // cargo row 0 is "frozen food" (segment 0); vehicle row 1 is a
  // segment-1 "tanker". Linking them breaks x3
  // (cargo.desc = frozen food -> vehicle.desc = refrigerated truck).
  MutationBatch batch;
  batch.Link(collects, 0, 1);
  auto result = engine.Apply(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
  std::span<const int64_t> partners =
      engine.store()->Partners(collects, schema.FindClass("cargo"), 0);
  EXPECT_EQ(std::count(partners.begin(), partners.end(), 1), 0);
}

TEST(ApplyTest, InterClassViolationViaUpdateRejected) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId vehicle = schema.FindClass("vehicle");
  AttrRef desc = schema.ResolveQualified("vehicle.desc").value();
  // Vehicle 0 is the refrigerated truck collecting frozen-food cargo 0
  // (diagonal link): repainting it violates x3 on that existing pair
  // (and i7, since its vclass is 4).
  MutationBatch batch;
  batch.Update(vehicle, 0, desc.attr_id, Value::String("tanker"));
  auto result = engine.Apply(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(engine.store()->extent(vehicle).ValueAt(0, desc.attr_id),
            Value::String("refrigerated truck"));
}

TEST(ApplyTest, PerOpErrorIsAtomicAndNamesTheOp) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  ClassId cargo = schema.FindClass("cargo");
  AttrRef weight = schema.ResolveQualified("cargo.weight").value();
  const uint64_t version = engine.data_version();

  MutationBatch batch;
  ASSERT_OK_AND_ASSIGN(Object s,
                       MakeSegmentObject(schema, supplier, 0, 9));
  batch.Insert(supplier, std::move(s));
  batch.Update(cargo, 99999, weight.attr_id, Value::Int(20));
  auto result = engine.Apply(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(result.status().message().find("mutation #1"),
            std::string::npos);
  EXPECT_EQ(engine.data_version(), version);
  EXPECT_EQ(engine.store()->NumLiveObjects(supplier),
            kSpec.class_cardinality);
}

TEST(ApplyTest, CrossClassHandleUseRejected) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  ClassId cargo = schema.FindClass("cargo");
  const uint64_t version = engine.data_version();

  // The handle names a supplier; using it as a cargo row must fail the
  // batch instead of touching whatever cargo row shares the id.
  MutationBatch batch;
  ASSERT_OK_AND_ASSIGN(Object s,
                       MakeSegmentObject(schema, supplier, 0, 11));
  int64_t handle = batch.Insert(supplier, std::move(s));
  batch.Delete(cargo, handle);
  auto result = engine.Apply(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.data_version(), version);
  EXPECT_EQ(engine.store()->NumLiveObjects(cargo),
            kSpec.class_cardinality);
}

TEST(ApplyTest, LinkToDeletedRowRejected) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId driver = schema.FindClass("driver");
  RelId inspects = schema.FindRelationship("inspects");

  MutationBatch del;
  del.Delete(driver, 2);
  ASSERT_OK(engine.Apply(del).status());

  MutationBatch link;
  link.Link(inspects, 2, 2);
  auto result = engine.Apply(link);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ApplyTest, LinkUndoneByLaterUnlinkIsNotValidated) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  RelId collects = schema.FindRelationship("collects");
  // The (cargo 0, vehicle 1) cross-segment pair violates x3 — but the
  // batch removes it again, so the FINAL state is valid and the commit
  // must go through.
  MutationBatch batch;
  batch.Link(collects, 0, 1);
  batch.Unlink(collects, 0, 1);
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(batch));
  EXPECT_EQ(out.links, 1u);
  EXPECT_EQ(out.unlinks, 1u);
  std::span<const int64_t> partners =
      engine.store()->Partners(collects, schema.FindClass("cargo"), 0);
  EXPECT_EQ(std::count(partners.begin(), partners.end(), 1), 0);
}

TEST(ApplyTest, RejectionCounterCountsOnlyConstraintRejections) {
  ASSERT_OK_AND_ASSIGN(Engine unloaded,
                       Engine::Open(SchemaSource::Experiment(),
                                    ConstraintSource::Experiment()));
  MutationBatch batch;
  batch.Delete(0, 0);
  EXPECT_FALSE(unloaded.Apply(batch).ok());
  EXPECT_EQ(unloaded.stats().mutation_batches_rejected, 0u);

  Engine engine = OpenLoadedEngine();
  MutationBatch bad_row;
  bad_row.Delete(0, 99999);  // malformed, not a constraint rejection
  EXPECT_EQ(engine.Apply(bad_row).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.stats().mutation_batches_rejected, 0u);
}

TEST(ApplyTest, OutcomeReportsDriftAndChecks) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  AttrRef rating = schema.ResolveQualified("supplier.rating").value();

  MutationBatch batch;
  batch.Update(supplier, 0, rating.attr_id, Value::Int(10));
  ASSERT_OK_AND_ASSIGN(ApplyOutcome out, engine.Apply(batch));
  EXPECT_GT(out.constraint_checks, 0u);  // i1 at least, on the row
  // One row of 40 changed: drift 1/40, below the default threshold.
  EXPECT_DOUBLE_EQ(out.stats_drift, 1.0 / 40.0);
  EXPECT_FALSE(out.plan_cache_invalidated);
}

}  // namespace
}  // namespace sqopt
