// Morsel-driven parallel execution tests: the parallel executor against
// the brute-force reference evaluator AND against the sequential
// executor, across generated workloads at parallelism 1, 2, and 8. The
// contract under test is strict: identical row sets, identical row
// ORDER after the deterministic morsel merge, and identical work
// counters (the fan-out may only change the timing fields).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/worker_pool.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "exec/plan_builder.h"
#include "exec/reference_executor.h"
#include "query/query_parser.h"
#include "query/query_printer.h"
#include "tests/test_util.h"
#include "workload/path_enum.h"
#include "workload/query_gen.h"

namespace sqopt {
namespace {

using sqopt::testing::ExperimentFixture;

std::vector<std::string> RowKeys(const ResultSet& rs) {
  std::vector<std::string> keys;
  keys.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string k;
    for (const Value& v : row) {
      k += v.ToString();
      k += '|';
    }
    keys.push_back(std::move(k));
  }
  return keys;
}

// ---------------------------------------------------------------------
// Cost-model gating.
// ---------------------------------------------------------------------

TEST(ChooseScanParallelismTest, SmallScansStaySequential) {
  EXPECT_EQ(ChooseScanParallelism(100, 8, kDefaultMorselSize), 1);
  EXPECT_EQ(ChooseScanParallelism(0, 8, kDefaultMorselSize), 1);
  EXPECT_EQ(ChooseScanParallelism(1 << 20, 1, kDefaultMorselSize), 1);
  EXPECT_EQ(ChooseScanParallelism(1 << 20, 0, kDefaultMorselSize), 1);
}

TEST(ChooseScanParallelismTest, LargeScansFanOutCappedByMorselCount) {
  EXPECT_EQ(ChooseScanParallelism(1 << 20, 8, kDefaultMorselSize), 8);
  // 5000 candidates = 3 morsels of 2048 -> at most 3 useful workers.
  EXPECT_EQ(ChooseScanParallelism(5000, 8, kDefaultMorselSize), 3);
}

TEST(ChooseScanParallelismTest, FanOutNeverCheaperOnTinyScans) {
  EXPECT_GE(ParallelScanCost(10, 4), ParallelScanCost(10, 1));
  EXPECT_LT(ParallelScanCost(1 << 20, 8), ParallelScanCost(1 << 20, 1));
}

// ---------------------------------------------------------------------
// Differential: parallel executor vs sequential vs reference, across
// the generated workload.
// ---------------------------------------------------------------------

class ParallelDifferentialTest
    : public ExperimentFixture,
      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(ParallelDifferentialTest, MatchesSequentialAndReferenceExactly) {
  uint64_t seed = GetParam();
  // Small store: the reference evaluator is O(prod of cardinalities).
  ASSERT_OK_AND_ASSIGN(
      auto store, GenerateDatabase(schema_, DbSpec{"PDIFF", 24, 60}, seed));
  DatabaseStats stats = CollectStats(*store);

  std::vector<SchemaPath> paths = EnumerateSimplePaths(schema_, 1, 3);
  QueryGenerator gen(&schema_, seed * 17 + 5);
  ASSERT_OK_AND_ASSIGN(std::vector<Query> queries, gen.Sample(paths, 12));

  WorkerPool pool(8);
  for (const Query& query : queries) {
    ASSERT_OK_AND_ASSIGN(Plan plan, BuildPlan(schema_, stats, query));
    ExecutionMeter seq_meter;
    ASSERT_OK_AND_ASSIGN(ResultSet sequential,
                         ExecutePlan(*store, plan, &seq_meter));
    ASSERT_OK_AND_ASSIGN(ResultSet reference,
                         ExecuteReference(*store, query));
    ASSERT_TRUE(sequential.SameRows(reference))
        << PrintQuery(schema_, query);

    for (int parallelism : {1, 2, 8}) {
      Plan forced = plan;
      forced.parallelism = parallelism;
      forced.morsel_size = 2;  // many morsels even on a 24-row extent
      ExecutionMeter meter;
      ExecContext context;
      context.pool = &pool;
      ASSERT_OK_AND_ASSIGN(ResultSet parallel,
                           ExecutePlan(*store, forced, &meter, context));

      // Same rows, same ORDER: the morsel merge is deterministic.
      EXPECT_EQ(RowKeys(parallel), RowKeys(sequential))
          << "parallelism " << parallelism << ": "
          << PrintQuery(schema_, query);
      EXPECT_TRUE(parallel.SameRows(reference));

      // Work accounting is independent of the fan-out.
      EXPECT_EQ(meter.instances_scanned, seq_meter.instances_scanned);
      EXPECT_EQ(meter.index_probes, seq_meter.index_probes);
      EXPECT_EQ(meter.pointer_traversals, seq_meter.pointer_traversals);
      EXPECT_EQ(meter.predicate_evals, seq_meter.predicate_evals);
      EXPECT_EQ(meter.rows_out, seq_meter.rows_out);
      if (parallelism > 1 && meter.morsels > 1) {
        EXPECT_GE(meter.morsel_workers, 1u);
      } else if (parallelism == 1) {
        EXPECT_EQ(meter.morsels, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Values(11, 22, 33, 44));

// An index-driven driving step (range scan) morselizes the index
// lookup result instead of the extent; order and counters must still
// match the sequential run.
TEST_F(ParallelDifferentialTest, IndexRangeScanMorselizes) {
  ASSERT_OK_AND_ASSIGN(
      auto store, GenerateDatabase(schema_, DbSpec{"PIDX", 32, 64}, 7));
  DatabaseStats stats = CollectStats(*store);
  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_,
                 "{cargo.code, vehicle.vehicleNo} {} "
                 "{cargo.desc = \"parcels\"} {collects} {cargo, vehicle}"));
  ASSERT_OK_AND_ASSIGN(Plan plan, BuildPlan(schema_, stats, query));
  ASSERT_TRUE(plan.steps[0].index_predicate.has_value())
      << plan.ToString(schema_);

  ExecutionMeter seq_meter;
  ASSERT_OK_AND_ASSIGN(ResultSet sequential,
                       ExecutePlan(*store, plan, &seq_meter));
  Plan forced = plan;
  forced.parallelism = 4;
  forced.morsel_size = 2;
  WorkerPool pool(4);
  ExecutionMeter meter;
  ExecContext context;
  context.pool = &pool;
  ASSERT_OK_AND_ASSIGN(ResultSet parallel,
                       ExecutePlan(*store, forced, &meter, context));
  EXPECT_EQ(RowKeys(parallel), RowKeys(sequential));
  EXPECT_EQ(meter.index_probes, seq_meter.index_probes);
  EXPECT_EQ(meter.instances_scanned, seq_meter.instances_scanned);
  EXPECT_GT(meter.morsels, 1u);
}

// The flat pipeline's every placement at once, in a hand-built plan
// over the cargo-vehicle-driver triangle: a residual predicate on an
// expansion step (vehicle), a join predicate checkable only at step 2
// (driver against vehicle) and a cycle-closing relationship (inspects,
// driver to cargo). At parallelism 1 and 4 with 3-row morsels, rows,
// order and work counters must equal the sequential run, and the rows
// the reference evaluator's.
TEST_F(ParallelDifferentialTest, FlatPipelineMatchesSequentialAndReference) {
  ASSERT_OK_AND_ASSIGN(
      auto store, GenerateDatabase(schema_, DbSpec{"PFLAT", 24, 60}, 5));
  auto pred = [&](const char* text) {
    auto p = ParsePredicate(schema_, text);
    EXPECT_TRUE(p.ok()) << text;
    return *p;
  };
  auto attr = [&](const char* name) {
    return schema_.ResolveQualified(name).value();
  };
  const ClassId cargo = schema_.FindClass("cargo");
  const ClassId vehicle = schema_.FindClass("vehicle");
  const ClassId driver = schema_.FindClass("driver");

  Plan plan;
  plan.steps.resize(3);
  plan.steps[0].class_id = cargo;
  plan.steps[1].class_id = vehicle;
  plan.steps[1].via_rel = schema_.FindRelationship("collects");
  plan.steps[1].from_class = cargo;
  plan.steps[1].residual_predicates = {pred("vehicle.capacity >= 25")};
  plan.steps[2].class_id = driver;
  plan.steps[2].via_rel = schema_.FindRelationship("drives");
  plan.steps[2].from_class = vehicle;
  plan.join_predicates = {pred("driver.clearance < vehicle.desc")};
  plan.residual_relationships = {schema_.FindRelationship("inspects")};
  plan.projection = {attr("cargo.code"), attr("vehicle.vehicleNo"),
                     attr("driver.name")};

  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_,
                 "{cargo.code, vehicle.vehicleNo, driver.name} "
                 "{driver.clearance < vehicle.desc} "
                 "{vehicle.capacity >= 25} {collects, drives, inspects} "
                 "{cargo, vehicle, driver}"));
  ASSERT_OK_AND_ASSIGN(ResultSet reference, ExecuteReference(*store, query));

  ExecutionMeter seq_meter;
  ASSERT_OK_AND_ASSIGN(ResultSet sequential,
                       ExecutePlan(*store, plan, &seq_meter));
  ASSERT_FALSE(sequential.rows.empty()) << "the plan must produce rows";
  EXPECT_TRUE(sequential.SameRows(reference));

  WorkerPool pool(4);
  for (int parallelism : {1, 4}) {
    Plan forced = plan;
    forced.parallelism = parallelism;
    forced.morsel_size = 3;
    ExecutionMeter meter;
    ExecContext context;
    context.pool = &pool;
    ASSERT_OK_AND_ASSIGN(ResultSet parallel,
                         ExecutePlan(*store, forced, &meter, context));
    EXPECT_EQ(RowKeys(parallel), RowKeys(sequential)) << parallelism;
    EXPECT_TRUE(parallel.SameRows(reference)) << parallelism;
    EXPECT_EQ(meter.instances_scanned, seq_meter.instances_scanned);
    EXPECT_EQ(meter.index_probes, seq_meter.index_probes);
    EXPECT_EQ(meter.pointer_traversals, seq_meter.pointer_traversals);
    EXPECT_EQ(meter.predicate_evals, seq_meter.predicate_evals);
    EXPECT_EQ(meter.rows_out, seq_meter.rows_out);
    EXPECT_EQ(meter.morsels > 1, parallelism > 1) << parallelism;
  }
}

// Without a pool the executor ignores plan.parallelism and runs
// sequentially — a plan is always safe to execute.
TEST_F(ParallelDifferentialTest, NoPoolFallsBackToSequential) {
  ASSERT_OK_AND_ASSIGN(
      auto store, GenerateDatabase(schema_, DbSpec{"PSEQ", 16, 40}, 3));
  DatabaseStats stats = CollectStats(*store);
  ASSERT_OK_AND_ASSIGN(
      Query query,
      ParseQuery(schema_, "{cargo.code} {} {} {} {cargo}"));
  ASSERT_OK_AND_ASSIGN(Plan plan, BuildPlan(schema_, stats, query));
  plan.parallelism = 8;
  plan.morsel_size = 2;
  ExecutionMeter meter;
  ASSERT_OK_AND_ASSIGN(ResultSet rows, ExecutePlan(*store, plan, &meter));
  EXPECT_EQ(rows.rows.size(), 16u);
  EXPECT_EQ(meter.morsels, 0u);
  EXPECT_EQ(meter.parallel_wall_micros, 0u);
}

// ---------------------------------------------------------------------
// Engine-level: the parallelism knob threads from ServeOptions through
// the planner into execution, and the outcome reports the fan-out.
// ---------------------------------------------------------------------

EngineOptions ParallelEngineOptions(int parallelism) {
  EngineOptions options;
  options.serve.parallelism = parallelism;
  options.serve.threads = 8;
  options.serve.morsel_size = 4;
  return options;
}

// About 64 rows per class is enough to fan out: a full extent scan of
// two pages costs 2 sequential and 2/3 + 2 * 0.25 on three workers
// (kParallelFanoutOverhead per extra worker).
class ParallelEngineTest : public ::testing::Test {
 protected:
  static Engine OpenLoaded(const EngineOptions& options) {
    auto engine = Engine::Open(SchemaSource::Experiment(),
                               ConstraintSource::Experiment(), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    Status s =
        engine->Load(DataSource::Generated(DbSpec{"PENG", 64, 96}, 9));
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::move(engine).value();
  }
};

TEST_F(ParallelEngineTest, KnobThreadsThroughToMorselExecution) {
  Engine parallel = OpenLoaded(ParallelEngineOptions(8));
  Engine sequential = OpenLoaded(EngineOptions{});

  // quantity is not indexed: the driving step is a full extent scan.
  const std::string text =
      "{cargo.code} {} {cargo.quantity >= 0} {} {cargo}";
  ASSERT_OK_AND_ASSIGN(QueryOutcome par, parallel.Execute(text));
  ASSERT_OK_AND_ASSIGN(QueryOutcome seq, sequential.Execute(text));

  EXPECT_EQ(RowKeys(par.rows), RowKeys(seq.rows));
  EXPECT_GT(par.meter.morsels, 1u) << "plan did not fan out";
  EXPECT_GE(par.meter.morsel_workers, 1u);
  EXPECT_EQ(seq.meter.morsels, 0u);

  // The prepared path replays the same parallel plan.
  ASSERT_OK_AND_ASSIGN(PreparedQuery stmt, parallel.Prepare(text));
  ASSERT_OK_AND_ASSIGN(QueryOutcome replay, stmt.Execute());
  EXPECT_EQ(RowKeys(replay.rows), RowKeys(seq.rows));
  EXPECT_GT(replay.meter.morsels, 1u);
}

// A prepared parallel plan keeps the engine's morsel pool alive: the
// handle co-owns the engine state, which owns the pool, so executing it
// after the Engine object is gone still fans out, from any thread.
TEST_F(ParallelEngineTest, PreparedParallelPlanOutlivesEngine) {
  const std::string text =
      "{cargo.code} {} {cargo.quantity >= 0} {} {cargo}";
  PreparedQuery stmt;
  std::vector<std::string> expected;
  {
    Engine engine = OpenLoaded(ParallelEngineOptions(8));
    ASSERT_OK_AND_ASSIGN(stmt, engine.Prepare(text));
    ASSERT_OK_AND_ASSIGN(QueryOutcome first, stmt.Execute());
    ASSERT_GT(first.meter.morsels, 1u) << "plan did not fan out";
    expected = RowKeys(first.rows);
  }

  constexpr int kThreads = 2;
  constexpr int kReps = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r) {
        Result<QueryOutcome> out = stmt.Execute();
        if (!out.ok() || out->meter.morsels <= 1 ||
            RowKeys(out->rows) != expected) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST_F(ParallelEngineTest, ConcurrentParallelExecutes) {
  Engine engine = OpenLoaded(ParallelEngineOptions(4));
  const std::string text =
      "{cargo.code, vehicle.vehicleNo} {} {cargo.quantity >= 0} "
      "{collects} {cargo, vehicle}";
  ASSERT_OK_AND_ASSIGN(QueryOutcome expected, engine.Execute(text));

  constexpr int kThreads = 4;
  constexpr int kReps = 8;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kReps; ++i) {
          auto out = engine.Execute(text);
          if (!out.ok() ||
              RowKeys(out->rows) != RowKeys(expected.rows)) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
}  // namespace sqopt
