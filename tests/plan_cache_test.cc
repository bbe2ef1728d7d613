// Tests for the shared plan cache: transparent Execute hits, keying
// on the text as sent (textual variants are separate entries with the
// same answer, printed-form texts hit too), LRU eviction, counters in
// QueryOutcome, and — most load-bearing — invalidation on data
// reloads: a reload between two identical Executes must miss the cache
// and never serve rows from the dropped store.
#include "api/plan_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "api/engine_impl.h"
#include "query/query_printer.h"
#include "tests/test_util.h"
#include "workload/query_pool.h"

namespace sqopt {
namespace {

constexpr uint64_t kSeed = 20260728;
const DbSpec kSpec{"plan_cache_test", 104, 154};

const char* kJoinQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\", "
    "supplier.region = \"west\"} {supplies} {supplier, cargo}";
const char* kSingleClassQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}";
// kSingleClassQuery with gratuitous whitespace: another key, same rows.
const char* kSingleClassQueryVariant =
    "{ cargo.code }  {} { cargo.desc = \"frozen food\" } {}  { cargo }";
const char* kRatingQuery =
    "{supplier.name} {} {supplier.rating >= 8} {} {supplier}";
const char* kContradictionQuery =
    "{cargo.code} {} {vehicle.desc = \"refrigerated truck\", "
    "cargo.desc = \"fuel\"} {collects} {cargo, vehicle}";

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

// --- Direct PlanCache unit coverage. ---

std::shared_ptr<const detail::PreparedState> MakeEntry() {
  auto entry = std::make_shared<detail::PreparedState>();
  entry->empty_result = true;  // executable without data
  return entry;
}

TEST(PlanCacheUnitTest, LookupInsertAndCounters) {
  detail::PlanCache cache(/*capacity=*/16);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", MakeEntry(), cache.epoch());
  EXPECT_NE(cache.Lookup("a"), nullptr);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 16u);
  EXPECT_GE(stats.shards, 1u);
}

TEST(PlanCacheUnitTest, StaleEpochInsertIsDropped) {
  detail::PlanCache cache(/*capacity=*/16);
  uint64_t epoch = cache.epoch();
  cache.Invalidate();  // a "reload" between lookup and insert
  cache.Insert("a", MakeEntry(), epoch);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(PlanCacheUnitTest, EvictsLeastRecentlyUsed) {
  // Capacity 1 => one shard, one slot: the second insert evicts the
  // first.
  detail::PlanCache cache(/*capacity=*/1);
  cache.Insert("a", MakeEntry(), cache.epoch());
  cache.Insert("b", MakeEntry(), cache.epoch());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
}

TEST(PlanCacheUnitTest, DisabledCacheIsInert) {
  detail::PlanCache cache(/*capacity=*/0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("a", MakeEntry(), cache.epoch());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.capacity, 0u);
}

TEST(PlanCacheUnitTest, SequentialOnlyLookupSkipsParallelPlans) {
  detail::PlanCache cache(/*capacity=*/8);
  auto parallel = std::make_shared<detail::PreparedState>();
  parallel->plan.emplace();
  parallel->plan->parallelism = 4;
  cache.Insert("wide", parallel, cache.epoch());
  cache.Insert("narrow", MakeEntry(), cache.epoch());

  EXPECT_EQ(cache.Lookup("wide", /*count_miss=*/false,
                         /*sequential_only=*/true),
            nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);  // skipped, not counted
  EXPECT_NE(cache.Lookup("narrow", /*count_miss=*/false,
                         /*sequential_only=*/true),
            nullptr);
  EXPECT_NE(cache.Lookup("wide"), nullptr);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // Without `count_miss` an absent key is not counted either.
  EXPECT_EQ(cache.Lookup("absent", /*count_miss=*/false), nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// --- Engine-integrated behavior. ---

TEST(PlanCacheEngineTest, ExecuteIfCachedServesOnlyRawTextHits) {
  Engine engine = OpenLoadedEngine();
  const EngineStats before = engine.stats();
  const PlanCacheStats cache_before = engine.plan_cache_stats();
  ASSERT_OK_AND_ASSIGN(CachedAnswer cold, engine.ExecuteIfCached(kJoinQuery));
  EXPECT_FALSE(cold.cached);
  // "Not cached" did nothing else: no parse, no miss, no execution.
  EXPECT_EQ(engine.stats().queries_parsed, before.queries_parsed);
  EXPECT_EQ(engine.stats().queries_executed, before.queries_executed);
  EXPECT_EQ(engine.plan_cache_stats().misses, cache_before.misses);
  EXPECT_EQ(engine.plan_cache_stats().hits, cache_before.hits);

  ASSERT_OK_AND_ASSIGN(QueryOutcome direct, engine.Execute(kJoinQuery));
  const uint64_t hits = engine.plan_cache_stats().hits;
  ASSERT_OK_AND_ASSIGN(CachedAnswer warm, engine.ExecuteIfCached(kJoinQuery));
  EXPECT_TRUE(warm.cached);
  EXPECT_FALSE(warm.answered_without_database);
  EXPECT_EQ(warm.rows, direct.rows.rows);
  EXPECT_EQ(engine.plan_cache_stats().hits, hits + 1);

  // A textual variant is another key, not cached yet.
  ASSERT_OK(engine.Execute(kSingleClassQuery).status());
  ASSERT_OK_AND_ASSIGN(CachedAnswer variant,
                       engine.ExecuteIfCached(kSingleClassQueryVariant));
  EXPECT_FALSE(variant.cached);

  ASSERT_OK(engine.Execute(kContradictionQuery).status());
  ASSERT_OK_AND_ASSIGN(CachedAnswer refuted,
                       engine.ExecuteIfCached(kContradictionQuery));
  EXPECT_TRUE(refuted.cached);
  EXPECT_TRUE(refuted.answered_without_database);
  EXPECT_TRUE(refuted.rows.empty());
}

TEST(PlanCacheEngineTest, SecondExecuteHitsTheCache) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome first, engine.Execute(kJoinQuery));
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_EQ(first.plan_cache.misses, 1u);

  ASSERT_OK_AND_ASSIGN(QueryOutcome second, engine.Execute(kJoinQuery));
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(second.plan_cache.hits, 1u);
  EXPECT_TRUE(second.rows.SameRows(first.rows));
  EXPECT_EQ(second.meter.rows_out, first.meter.rows_out);
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);
}

TEST(PlanCacheEngineTest, RawTextRepeatSkipsReparsing) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK(engine.Execute(kJoinQuery).status());
  uint64_t parses_before = engine.stats().queries_parsed;
  ASSERT_OK_AND_ASSIGN(QueryOutcome repeat, engine.Execute(kJoinQuery));
  EXPECT_TRUE(repeat.plan_cache_hit);
  // The text is the key: the repeat is served without re-parsing.
  EXPECT_EQ(engine.stats().queries_parsed, parses_before);
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);
}

// A text already in printed form (what PrintQuery and Explain's
// `transformed:` line emit) is cached under itself like any other text:
// its repeats skip parsing, and ExecuteIfCached serves it.
TEST(PlanCacheEngineTest, PrintedFormTextIsCachedLikeAnyOther) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(Query parsed, engine.Parse(kRatingQuery));
  const std::string printed = PrintQuery(engine.schema(), parsed);
  ASSERT_EQ(printed,
            "(SELECT {supplier.name} {} {supplier.rating >= 8} {} "
            "{supplier})");
  const uint64_t parses_before = engine.stats().queries_parsed;
  for (int call = 0; call < 3; ++call) {
    ASSERT_OK_AND_ASSIGN(QueryOutcome out, engine.Execute(printed));
    EXPECT_EQ(out.plan_cache_hit, call > 0) << "call " << call;
    EXPECT_EQ(engine.stats().queries_parsed, parses_before + 1)
        << "call " << call;
  }
  ASSERT_OK_AND_ASSIGN(CachedAnswer served, engine.ExecuteIfCached(printed));
  EXPECT_TRUE(served.cached);
  EXPECT_FALSE(served.rows.empty());
  // A Query is keyed on its printed form, so it shares the entry.
  ASSERT_OK_AND_ASSIGN(QueryOutcome as_query, engine.Execute(parsed));
  EXPECT_TRUE(as_query.plan_cache_hit);
  EXPECT_EQ(as_query.original, parsed);
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);
  // A malformed hand-built Query is refused before it is printed.
  Query bad = parsed;
  bad.classes.push_back(static_cast<ClassId>(engine.schema().num_classes()));
  EXPECT_EQ(engine.Execute(bad).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.Prepare(bad).status().code(), StatusCode::kOutOfRange);
}

TEST(PlanCacheEngineTest, TextualVariantsAreSeparateEntriesWithOneAnswer) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                       engine.Execute(kSingleClassQuery));
  ASSERT_OK_AND_ASSIGN(QueryOutcome variant,
                       engine.Execute(kSingleClassQueryVariant));
  EXPECT_FALSE(variant.plan_cache_hit);
  EXPECT_EQ(engine.plan_cache_stats().misses, 2u);
  EXPECT_EQ(engine.plan_cache_stats().entries, 2u);
  EXPECT_TRUE(variant.rows.SameRows(first.rows));
}

// The projection's order is the result's column order, so a query and
// its swapped twin need separate entries: sharing one would hand the
// second text the first text's columns.
TEST(PlanCacheEngineTest, ProjectionOrderIsPartOfTheKey) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(
      QueryOutcome first,
      engine.Execute("{department.name, department.securityClass} {} {} {} "
                     "{department}"));
  ASSERT_OK_AND_ASSIGN(
      QueryOutcome swapped,
      engine.Execute("{department.securityClass, department.name} {} {} {} "
                     "{department}"));
  EXPECT_FALSE(swapped.plan_cache_hit);
  EXPECT_EQ(engine.plan_cache_stats().entries, 2u);
  ASSERT_FALSE(first.rows.rows.empty());
  ASSERT_EQ(swapped.rows.rows.size(), first.rows.rows.size());
  for (const std::vector<Value>& row : swapped.rows.rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].type(), ValueType::kInt);
    EXPECT_EQ(row[1].type(), ValueType::kString);
  }
}

TEST(PlanCacheEngineTest, PrepareAndExecuteShareEntries) {
  Engine engine = OpenLoadedEngine();
  // Execute seeds the cache; Prepare hits it (no second miss) ...
  ASSERT_OK(engine.Execute(kJoinQuery).status());
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared, engine.Prepare(kJoinQuery));
  EXPECT_EQ(engine.plan_cache_stats().misses, 1u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
  ASSERT_OK(prepared.Execute().status());
  // ... and a Prepare of a fresh query seeds the cache for Execute.
  ASSERT_OK(engine.Prepare(kSingleClassQuery).status());
  ASSERT_OK_AND_ASSIGN(QueryOutcome out, engine.Execute(kSingleClassQuery));
  EXPECT_TRUE(out.plan_cache_hit);
}

TEST(PlanCacheEngineTest, ContradictionsAreCachedToo) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                       engine.Execute(kContradictionQuery));
  EXPECT_TRUE(first.answered_without_database);
  ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                       engine.Execute(kContradictionQuery));
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_TRUE(second.answered_without_database);
  EXPECT_EQ(second.meter.instances_scanned, 0u);
  EXPECT_EQ(engine.stats().contradictions, 2u);
}

TEST(PlanCacheEngineTest, CapacityZeroDisablesCaching) {
  EngineOptions options;
  options.serve.cache_capacity = 0;
  Engine engine = OpenLoadedEngine(options);
  ASSERT_OK(engine.Execute(kJoinQuery).status());
  ASSERT_OK_AND_ASSIGN(QueryOutcome second, engine.Execute(kJoinQuery));
  EXPECT_FALSE(second.plan_cache_hit);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.entries, 0u);

  // Both settings run the same pipeline: every pool query answers the
  // same with the cache off as with it on.
  Engine cached = OpenLoadedEngine();
  for (const std::string& text : ExperimentQueryPool()) {
    ASSERT_OK_AND_ASSIGN(QueryOutcome off, engine.Execute(text));
    ASSERT_OK_AND_ASSIGN(QueryOutcome on, cached.Execute(text));
    EXPECT_TRUE(off.rows.SameRows(on.rows)) << text;
    Query off_query = off.transformed;
    Query on_query = on.transformed;
    off_query.Normalize();
    on_query.Normalize();
    EXPECT_EQ(off_query, on_query) << text;
    EXPECT_EQ(off.answered_without_database, on.answered_without_database)
        << text;
  }
  EXPECT_EQ(engine.plan_cache_stats().entries, 0u);
}

TEST(PlanCacheEngineTest, EvictionUnderTinyCapacity) {
  EngineOptions options;
  options.serve.cache_capacity = 1;
  Engine engine = OpenLoadedEngine(options);
  ASSERT_OK(engine.Execute(kJoinQuery).status());
  ASSERT_OK(engine.Execute(kSingleClassQuery).status());
  ASSERT_OK(engine.Execute(kContradictionQuery).status());
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 2u);
}

// The satellite requirement: a reload between two identical Executes
// must miss the cache and serve rows from the NEW store, never the
// dropped one.
TEST(PlanCacheEngineTest, ReloadInvalidatesAndNeverServesDroppedStore) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome before,
                       engine.Execute(kSingleClassQuery));
  EXPECT_FALSE(before.plan_cache_hit);

  // Reload with a differently-sized database (different row counts for
  // the same query).
  ASSERT_OK(engine.Load(
      DataSource::Generated(DbSpec{"other", 52, 77}, kSeed + 1)));
  EXPECT_EQ(engine.plan_cache_stats().entries, 0u);
  // Two invalidations: the initial Load and this reload.
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 2u);

  ASSERT_OK_AND_ASSIGN(QueryOutcome after,
                       engine.Execute(kSingleClassQuery));
  EXPECT_FALSE(after.plan_cache_hit) << "reload must force a cache miss";
  EXPECT_NE(after.rows.rows.size(), before.rows.rows.size())
      << "rows must come from the new store";

  // What the fresh miss cached is the NEW store's plan.
  ASSERT_OK_AND_ASSIGN(QueryOutcome warm, engine.Execute(kSingleClassQuery));
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_TRUE(warm.rows.SameRows(after.rows));
}

// --- Write-path epoching: Apply invalidates only when the commit's
// statistics drift crosses kReplanThreshold, and cached
// plans that survive must serve the NEW snapshot's rows. ---

TEST(PlanCacheEngineTest, ApplyBelowThresholdKeepsCacheAndRebindsData) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");
  AttrRef rating = schema.ResolveQualified("supplier.rating").value();

  ASSERT_OK_AND_ASSIGN(QueryOutcome first, engine.Execute(kRatingQuery));
  EXPECT_FALSE(first.plan_cache_hit);
  const uint64_t invalidations_before =
      engine.plan_cache_stats().invalidations;

  // One update on a 104-row class: drift 1/104, far below 0.15.
  // (Dropping row 0's rating below 8 falsifies i1's antecedent, so no
  // constraint fires — and the query's result shrinks by one row.)
  MutationBatch batch;
  batch.Update(supplier, 0, rating.attr_id, Value::Int(7));
  ASSERT_OK_AND_ASSIGN(ApplyOutcome applied, engine.Apply(batch));
  EXPECT_FALSE(applied.plan_cache_invalidated);
  EXPECT_LT(applied.stats_drift, kReplanThreshold);

  ASSERT_OK_AND_ASSIGN(QueryOutcome second, engine.Execute(kRatingQuery));
  EXPECT_TRUE(second.plan_cache_hit)
      << "below-threshold Apply must not invalidate";
  EXPECT_EQ(engine.plan_cache_stats().invalidations,
            invalidations_before);
  // The surviving cached plan executes against the NEW snapshot.
  EXPECT_EQ(second.rows.rows.size(), first.rows.rows.size() - 1);
}

TEST(PlanCacheEngineTest, ApplyAboveThresholdInvalidates) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  ClassId supplier = schema.FindClass("supplier");

  ASSERT_OK_AND_ASSIGN(QueryOutcome first, engine.Execute(kRatingQuery));
  const uint64_t hits_before = engine.plan_cache_stats().hits;
  const uint64_t invalidations_before =
      engine.plan_cache_stats().invalidations;

  // 20 inserts on a 104-row class: drift ~0.19 >= 0.15.
  MutationBatch batch;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(Object obj,
                         MakeSegmentObject(schema, supplier, 0, 100 + i));
    batch.Insert(supplier, std::move(obj));
  }
  ASSERT_OK_AND_ASSIGN(ApplyOutcome applied, engine.Apply(batch));
  EXPECT_TRUE(applied.plan_cache_invalidated);
  EXPECT_GE(applied.stats_drift, kReplanThreshold);
  EXPECT_EQ(engine.plan_cache_stats().invalidations,
            invalidations_before + 1);

  ASSERT_OK_AND_ASSIGN(QueryOutcome second, engine.Execute(kRatingQuery));
  EXPECT_FALSE(second.plan_cache_hit)
      << "above-threshold Apply must force a re-plan";
  EXPECT_EQ(engine.plan_cache_stats().hits, hits_before);
  // Segment-0 suppliers have rating >= 8: all 20 inserts are visible.
  EXPECT_EQ(second.rows.rows.size(), first.rows.rows.size() + 20);
}

TEST(PlanCacheEngineTest, CatalogAndOptimizerChangesInvalidate) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK(engine.Execute(kJoinQuery).status());
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);

  // New constraint => retrieval/transformation may change => flush.
  ASSERT_OK(engine.AddConstraint(
      "extra: cargo.weight <= 40 -> cargo.quantity <= 499"));
  EXPECT_EQ(engine.plan_cache_stats().entries, 0u);

  ASSERT_OK(engine.Execute(kJoinQuery).status());
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);

  // New optimizer knobs => cached plans are stale => flush.
  engine.SetOptimizerOptions(OptimizerOptions{});
  EXPECT_EQ(engine.plan_cache_stats().entries, 0u);
}

TEST(PlanCacheEngineTest, AnalyzeAndUnoptimizedBypassTheCache) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK(engine.Analyze(kJoinQuery).status());
  ASSERT_OK(engine.ExecuteUnoptimized(kJoinQuery).status());
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.entries, 0u);
}

}  // namespace
}  // namespace sqopt
