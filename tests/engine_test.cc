// Tests for the sqopt::Engine façade: equivalence with the hand-wired
// pipeline, prepared-query semantics (identical rows, zero re-parses),
// thread-safety of the read path (run under -fsanitize=thread to check
// the race-freedom claim), and the admin path.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "exec/plan_builder.h"
#include "query/query_parser.h"
#include "sqo/optimizer.h"
#include "tests/test_util.h"
#include "workload/constraint_gen.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

constexpr uint64_t kSeed = 20260728;
const DbSpec kSpec{"engine_test", 104, 154};

const char* kJoinQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\", "
    "supplier.region = \"west\"} {supplies} {supplier, cargo}";
const char* kSingleClassQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}";
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

TEST(EngineOpenTest, OpenPrecompilesCatalog) {
  ASSERT_OK_AND_ASSIGN(
      Engine engine, Engine::Open(SchemaSource::Experiment(),
                                  ConstraintSource::Experiment()));
  EXPECT_TRUE(engine.catalog().precompiled());
  EXPECT_EQ(engine.catalog().num_base(), 15u);
  EXPECT_GT(engine.catalog().num_derived(), 0u);
  EXPECT_EQ(engine.store(), nullptr);
  EXPECT_EQ(engine.cost_model(), nullptr);
}

TEST(EngineOpenTest, MergedSourcesSkipDuplicates) {
  ASSERT_OK_AND_ASSIGN(
      Engine engine,
      Engine::Open(SchemaSource::Experiment(),
                   ConstraintSource::Merge({ConstraintSource::Experiment(),
                                            ConstraintSource::Experiment()})));
  EXPECT_EQ(engine.catalog().num_base(), 15u);
}

TEST(EngineOpenTest, BadConstraintTextFailsOpen) {
  auto opened =
      Engine::Open(SchemaSource::Experiment(),
                   ConstraintSource::FromText({"nonsense -> gibberish"}));
  EXPECT_FALSE(opened.ok());
}

// Execute must produce exactly what the hand-wired pipeline produces:
// same transformed query, same rows, same metered work.
TEST(EngineExecuteTest, MatchesHandWiredPipeline) {
  Engine engine = OpenLoadedEngine();

  // The hand-wired pipeline of the pre-façade era, on identical inputs.
  ASSERT_OK_AND_ASSIGN(Schema schema, BuildExperimentSchema());
  ConstraintCatalog catalog(&schema);
  ASSERT_OK_AND_ASSIGN(std::vector<HornClause> clauses,
                       ExperimentConstraints(schema));
  for (HornClause& clause : clauses) {
    ASSERT_OK(catalog.AddConstraint(std::move(clause)));
  }
  AccessStats access(schema.num_classes());
  ASSERT_OK(catalog.Precompile(&access));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       GenerateDatabase(schema, kSpec, kSeed));
  DatabaseStats stats = CollectStats(*store);
  CostModel cost_model(&schema, &stats);
  SemanticOptimizer optimizer(&schema, &catalog, &cost_model);

  for (const char* text : {kJoinQuery, kSingleClassQuery}) {
    ASSERT_OK_AND_ASSIGN(Query query, ParseQuery(schema, text));
    ASSERT_OK_AND_ASSIGN(OptimizeResult expected, optimizer.Optimize(query));
    ExecutionMeter expected_meter;
    ASSERT_OK_AND_ASSIGN(
        ResultSet expected_rows,
        ExecuteQuery(*store, expected.query, &expected_meter));

    ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, engine.Execute(text));
    Query expected_query = expected.query;
    Query actual_query = outcome.transformed;
    expected_query.Normalize();
    actual_query.Normalize();
    EXPECT_EQ(expected_query, actual_query) << text;
    EXPECT_EQ(expected.report.num_firings, outcome.report.num_firings);
    EXPECT_TRUE(outcome.rows.SameRows(expected_rows)) << text;
    EXPECT_EQ(outcome.meter.rows_out, expected_meter.rows_out);
  }
}

TEST(EngineExecuteTest, UnoptimizedPreservesDistinctRows) {
  Engine engine = OpenLoadedEngine();
  for (const char* text : {kJoinQuery, kSingleClassQuery}) {
    ASSERT_OK_AND_ASSIGN(QueryOutcome raw, engine.ExecuteUnoptimized(text));
    ASSERT_OK_AND_ASSIGN(QueryOutcome opt, engine.Execute(text));
    // Class elimination preserves the distinct result set (set
    // semantics — see DESIGN.md), not bag multiplicities.
    EXPECT_TRUE(raw.rows.SameDistinctRows(opt.rows)) << text;
    EXPECT_EQ(raw.report.num_firings, 0u);
  }
}

TEST(EngineExecuteTest, ContradictionAnsweredWithoutDatabase) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                       engine.Execute(kContradictionQuery));
  EXPECT_TRUE(outcome.answered_without_database);
  EXPECT_FALSE(outcome.executed);
  EXPECT_TRUE(outcome.rows.rows.empty());
  EXPECT_EQ(outcome.meter.instances_scanned, 0u);
  EXPECT_EQ(engine.stats().contradictions, 1u);
}

TEST(EngineExecuteTest, ExecuteWithoutDataFails) {
  ASSERT_OK_AND_ASSIGN(
      Engine engine, Engine::Open(SchemaSource::Experiment(),
                                  ConstraintSource::Experiment()));
  auto outcome = engine.Execute(kSingleClassQuery);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  // Analyze works without data (no cost model: walkthrough mode).
  ASSERT_OK_AND_ASSIGN(QueryOutcome analyzed,
                       engine.Analyze(kSingleClassQuery));
  EXPECT_FALSE(analyzed.executed);
}

TEST(EngineExecuteTest, ParseErrorsSurface) {
  Engine engine = OpenLoadedEngine();
  EXPECT_FALSE(engine.Execute("{nope.nope} {} {} {} {nope}").ok());
  EXPECT_FALSE(engine.Execute("not a query at all").ok());
}

// The prepared path must return row-for-row what a fresh Execute
// returns, and must not re-parse.
TEST(PreparedQueryTest, ReExecutionMatchesFreshExecute) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome fresh, engine.Execute(kJoinQuery));
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared, engine.Prepare(kJoinQuery));

  uint64_t parses_before = engine.stats().queries_parsed;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(QueryOutcome replay, prepared.Execute());
    EXPECT_TRUE(replay.executed);
    ASSERT_EQ(replay.rows.rows.size(), fresh.rows.rows.size());
    EXPECT_TRUE(replay.rows.SameRows(fresh.rows)) << "iteration " << i;
    EXPECT_EQ(replay.meter.rows_out, fresh.meter.rows_out);
  }
  // Zero re-parses across 10 re-executions.
  EXPECT_EQ(engine.stats().queries_parsed, parses_before);
  EXPECT_EQ(prepared.executions(), 10u);
  EXPECT_EQ(engine.stats().prepared_executions, 10u);

  Query expected = fresh.transformed;
  Query actual = prepared.transformed();
  expected.Normalize();
  actual.Normalize();
  EXPECT_EQ(expected, actual);
}

TEST(PreparedQueryTest, ContradictionPreparedNeverTouchesStore) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared,
                       engine.Prepare(kContradictionQuery));
  EXPECT_TRUE(prepared.answered_without_database());
  ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, prepared.Execute());
  EXPECT_TRUE(outcome.answered_without_database);
  EXPECT_TRUE(outcome.rows.rows.empty());
  EXPECT_EQ(outcome.meter.instances_scanned, 0u);
}

TEST(PreparedQueryTest, HandleOutlivesEngine) {
  std::optional<Engine> engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared,
                       engine->Prepare(kSingleClassQuery));
  ASSERT_OK_AND_ASSIGN(QueryOutcome before, prepared.Execute());
  engine.reset();  // destroy the Engine object
  ASSERT_OK_AND_ASSIGN(QueryOutcome after, prepared.Execute());
  EXPECT_TRUE(after.rows.SameRows(before.rows));
}

TEST(PreparedQueryTest, HandleSurvivesDataReload) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared,
                       engine.Prepare(kSingleClassQuery));
  ASSERT_OK_AND_ASSIGN(QueryOutcome before, prepared.Execute());
  // Swap in a different database; the old handle keeps executing
  // against the store it was planned on.
  ASSERT_OK(engine.Load(
      DataSource::Generated(DbSpec{"other", 52, 77}, kSeed + 1)));
  ASSERT_OK_AND_ASSIGN(QueryOutcome after, prepared.Execute());
  EXPECT_TRUE(after.rows.SameRows(before.rows));
  // A fresh prepare sees the new store.
  ASSERT_OK_AND_ASSIGN(PreparedQuery fresh,
                       engine.Prepare(kSingleClassQuery));
  ASSERT_OK_AND_ASSIGN(QueryOutcome fresh_out, fresh.Execute());
  EXPECT_NE(fresh_out.rows.rows.size(), before.rows.rows.size());
}

// A handle prepared with no data holds no plan. Loading data later does
// not give it one: executing it must fail the documented precondition
// instead of running a plan that was never built.
TEST(PreparedQueryTest, PreparedBeforeLoadFailsPreconditionAfterLoad) {
  ASSERT_OK_AND_ASSIGN(
      Engine engine, Engine::Open(SchemaSource::Experiment(),
                                  ConstraintSource::Experiment()));
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared,
                       engine.Prepare(kSingleClassQuery));
  ASSERT_OK(engine.Load(DataSource::Generated(kSpec, kSeed)));
  auto outcome = prepared.Execute();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(prepared.executions(), 0u);
  EXPECT_EQ(engine.stats().prepared_executions, 0u);
}

TEST(PreparedQueryTest, InvalidHandleFailsCleanly) {
  PreparedQuery empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Execute().ok());
  EXPECT_EQ(empty.executions(), 0u);
}

// Run under -fsanitize=thread to verify the race-freedom claim: N
// threads share one engine, mixing ad-hoc Execute, prepared
// re-execution, and Analyze.
TEST(EngineConcurrencyTest, ConcurrentExecuteIsRaceFree) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome expected_join,
                       engine.Execute(kJoinQuery));
  ASSERT_OK_AND_ASSIGN(QueryOutcome expected_single,
                       engine.Execute(kSingleClassQuery));
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared, engine.Prepare(kJoinQuery));

  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        auto ad_hoc = engine.Execute(
            (t + i) % 2 == 0 ? kJoinQuery : kSingleClassQuery);
        const QueryOutcome& expected =
            (t + i) % 2 == 0 ? expected_join : expected_single;
        if (!ad_hoc.ok() || !ad_hoc->rows.SameRows(expected.rows)) {
          failures.fetch_add(1);
        }
        auto replay = prepared.Execute();
        if (!replay.ok() || !replay->rows.SameRows(expected_join.rows)) {
          failures.fetch_add(1);
        }
        auto analyzed = engine.Analyze(kContradictionQuery);
        if (!analyzed.ok() || !analyzed->answered_without_database) {
          failures.fetch_add(1);
        }
        // Monitoring reads race-free against the recording writers.
        if (engine.access_stats().total() == 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(prepared.executions(),
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_EQ(engine.stats().queries_executed,
            static_cast<uint64_t>(kThreads * kIterations) + 2);
}

TEST(EngineAdminTest, AddConstraintRecompiles) {
  Engine engine = OpenLoadedEngine();
  size_t base_before = engine.catalog().num_base();
  ASSERT_OK(engine.AddConstraint(
      "extra: cargo.weight <= 40 -> cargo.quantity <= 499"));
  EXPECT_EQ(engine.catalog().num_base(), base_before + 1);
  EXPECT_TRUE(engine.catalog().precompiled());
  // Duplicates are an error on the explicit admin path.
  EXPECT_FALSE(engine
                   .AddConstraint(
                       "extra: cargo.weight <= 40 -> cargo.quantity <= 499")
                   .ok());
  // The engine still serves queries afterwards.
  ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                       engine.Execute(kSingleClassQuery));
  EXPECT_TRUE(outcome.executed);
}

TEST(EngineAdminTest, RecompileAppliesGroupingPolicy) {
  Engine engine = OpenLoadedEngine();
  PrecompileOptions precompile;
  precompile.grouping = GroupingPolicy::kBalanced;
  ASSERT_OK(engine.Recompile(precompile));
  EXPECT_EQ(engine.options().precompile.grouping,
            GroupingPolicy::kBalanced);
  ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                       engine.Execute(kJoinQuery));
  EXPECT_TRUE(outcome.executed);
}

TEST(EngineStatsTest, CountersTrackTheReadPath) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK(engine.Execute(kSingleClassQuery).status());
  ASSERT_OK(engine.Analyze(kSingleClassQuery).status());
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared,
                       engine.Prepare(kSingleClassQuery));
  ASSERT_OK(prepared.Execute().status());

  // Execute and Analyze parse; Prepare of the text Execute just cached
  // is a plan-cache hit and parses nothing.
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_parsed, 2u);
  EXPECT_EQ(stats.queries_executed, 1u);
  EXPECT_EQ(stats.queries_analyzed, 1u);
  EXPECT_EQ(stats.statements_prepared, 1u);
  EXPECT_EQ(stats.prepared_executions, 1u);
}

TEST(EngineAdminTest, SetOptimizerOptionsTakesEffect) {
  Engine engine = OpenLoadedEngine();
  ASSERT_OK_AND_ASSIGN(QueryOutcome unlimited, engine.Analyze(kJoinQuery));
  ASSERT_GT(unlimited.report.num_firings, 1u);

  OptimizerOptions optimizer;
  optimizer.transformation_budget = 1;
  engine.SetOptimizerOptions(optimizer);
  ASSERT_OK_AND_ASSIGN(QueryOutcome budgeted, engine.Analyze(kJoinQuery));
  EXPECT_EQ(budgeted.report.num_firings, 1u);
  EXPECT_TRUE(budgeted.report.budget_exhausted);
}

// The paper's walkthrough: before Load there are no statistics and so no
// cost model, and the optimizer retains every optional predicate. After
// Load the cost model drops unprofitable ones. The query projects from
// both classes, so neither is eliminated.
TEST(EngineAnalyzeTest, AnalyzeBeforeLoadRetainsEveryOptionalPredicate) {
  const char* query =
      "{driver.name, department.name} {} {department.securityClass >= 4} "
      "{belongsTo} {driver, department}";
  ASSERT_OK_AND_ASSIGN(
      Engine engine, Engine::Open(SchemaSource::Experiment(),
                                  ConstraintSource::Experiment()));
  ASSERT_EQ(engine.cost_model(), nullptr);
  ASSERT_OK_AND_ASSIGN(QueryOutcome walkthrough, engine.Analyze(query));
  size_t walkthrough_retained = 0;
  for (const FinalPredicate& fp : walkthrough.report.final_predicates) {
    if (fp.tag != PredicateTag::kOptional) continue;
    EXPECT_TRUE(fp.retained) << fp.predicate.ToString(engine.schema());
    walkthrough_retained += fp.retained;
  }
  // department.securityClass >= 4 and the two driver predicates it
  // introduces.
  EXPECT_EQ(walkthrough_retained, 3u);

  ASSERT_OK(engine.Load(DataSource::Generated(kSpec, kSeed)));
  ASSERT_NE(engine.cost_model(), nullptr);
  ASSERT_OK_AND_ASSIGN(QueryOutcome costed, engine.Analyze(query));
  size_t costed_retained = 0;
  for (const FinalPredicate& fp : costed.report.final_predicates) {
    costed_retained += fp.tag == PredicateTag::kOptional && fp.retained;
  }
  EXPECT_LT(costed_retained, walkthrough_retained);
}

}  // namespace
}  // namespace sqopt
