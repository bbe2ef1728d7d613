// Group commit: concurrent Apply callers batching into one
// leader/follower commit (one WAL append, one fsync, one published
// snapshot per group), per-batch typed statuses inside a group (a
// follower's constraint violation must not poison its groupmates), and
// whole-group WAL records surviving a durability roundtrip. The CI
// TSan leg runs this binary to hold the queue/leader protocol
// race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/mutation.h"
#include "cost/stats.h"
#include "storage/object_store.h"
#include "tests/test_util.h"
#include "workload/dbgen.h"

namespace sqopt {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 20260729;
const DbSpec kSpec{"group_commit_test", 40, 60};

const char* kRatingQuery =
    "{supplier.name} {} {supplier.rating >= 8} {} {supplier}";

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

// A constraint-respecting rating update: segment 0 suppliers carry
// ratings 8..10, every other segment 1..7 (constraint i1).
MutationBatch ValidRatingUpdate(const Engine& engine, int64_t row,
                                int salt) {
  const Schema& schema = engine.schema();
  const ClassId supplier = schema.FindClass("supplier");
  const AttrRef rating = schema.ResolveQualified("supplier.rating").value();
  MutationBatch batch;
  const int seg = SegmentOfRow(row);
  batch.Update(supplier, row, rating.attr_id,
               Value::Int(seg == 0 ? 8 + (salt % 3) : 1 + (salt % 7)));
  return batch;
}

TEST(ApplyGroupTest, EmptySpanReturnsEmptyVector) {
  Engine engine = OpenLoadedEngine();
  std::vector<MutationBatch> none;
  EXPECT_TRUE(engine.ApplyGroup(none).empty());
  EXPECT_EQ(engine.data_version(), 1u);
}

TEST(ApplyGroupTest, GroupCommitsEveryBatchWithConsecutiveVersions) {
  Engine engine = OpenLoadedEngine();
  std::vector<MutationBatch> group;
  for (int i = 0; i < 3; ++i) {
    group.push_back(ValidRatingUpdate(engine, i, i));
  }
  std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->snapshot_version, 2u + i);
    EXPECT_EQ(results[i]->group_size, 3u);
    EXPECT_EQ(results[i]->updates, 1u);
  }
  EXPECT_EQ(engine.data_version(), 4u);
  EXPECT_EQ(engine.stats().mutation_batches_applied, 3u);
}

TEST(ApplyGroupTest, ViolationIsRejectedInGroupWithoutPoisoningMates) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  const ClassId supplier = schema.FindClass("supplier");
  const AttrRef rating = schema.ResolveQualified("supplier.rating").value();

  std::vector<MutationBatch> group;
  group.push_back(ValidRatingUpdate(engine, 0, 1));
  // Row 1 is segment 1: rating 9 violates i1.
  MutationBatch doomed;
  doomed.Update(supplier, 1, rating.attr_id, Value::Int(9));
  group.push_back(std::move(doomed));
  group.push_back(ValidRatingUpdate(engine, 2, 4));

  std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->snapshot_version, 2u);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kConstraintViolation);
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  // The rejected batch consumed no version: its survivor successor
  // takes the next one.
  EXPECT_EQ(results[2]->snapshot_version, 3u);
  EXPECT_EQ(engine.data_version(), 3u);
  EXPECT_EQ(engine.stats().mutation_batches_applied, 2u);
  EXPECT_EQ(engine.stats().mutation_batches_rejected, 1u);
  // The doomed write is nowhere in the published snapshot.
  EXPECT_NE(engine.store()->extent(supplier).ValueAt(1, rating.attr_id),
            Value::Int(9));
}

TEST(ApplyGroupTest, MalformedBatchGetsTypedErrorAndMatesCommit) {
  Engine engine = OpenLoadedEngine();
  const ClassId supplier = engine.schema().FindClass("supplier");

  std::vector<MutationBatch> group;
  group.push_back(ValidRatingUpdate(engine, 0, 1));
  MutationBatch malformed;
  malformed.Delete(supplier, 1'000'000);  // no such row
  group.push_back(std::move(malformed));

  std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->snapshot_version, 2u);
  ASSERT_FALSE(results[1].ok());
  // Same typed status a solo Apply of this batch would earn.
  EXPECT_EQ(results[1].status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.data_version(), 2u);
}

TEST(ApplyGroupTest, EmptyBatchInGroupConsumesNoVersion) {
  Engine engine = OpenLoadedEngine();
  std::vector<MutationBatch> group;
  group.push_back(ValidRatingUpdate(engine, 0, 1));
  group.push_back(MutationBatch{});
  group.push_back(ValidRatingUpdate(engine, 2, 4));

  std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->snapshot_version, 2u);
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  EXPECT_EQ(results[1]->snapshot_version, 1u);  // pre-group snapshot
  EXPECT_EQ(results[1]->group_size, 0u);
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(results[2]->snapshot_version, 3u);
  EXPECT_EQ(engine.data_version(), 3u);
}

TEST(ApplyGroupTest, GroupSurvivesDurabilityRoundtripAsOneWalRecord) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("sqopt_group_commit_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  size_t rows_before = 0, rows_after = 0;
  {
    Engine engine = OpenLoadedEngine();
    ASSERT_OK(engine.Save(dir));
    std::vector<MutationBatch> group;
    for (int i = 0; i < 3; ++i) {
      group.push_back(ValidRatingUpdate(engine, i, i));
    }
    std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
    ASSERT_EQ(results.size(), 3u);
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    EXPECT_EQ(engine.data_version(), 4u);
    auto out = engine.Execute(kRatingQuery);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    rows_before = out->rows.rows.size();
  }

  ASSERT_OK_AND_ASSIGN(Engine reopened, Engine::Open(dir));
  EXPECT_EQ(reopened.data_version(), 4u);
  // The whole group replayed from ONE WAL record.
  EXPECT_EQ(reopened.stats().wal_records_replayed, 1u);
  auto out = reopened.Execute(kRatingQuery);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  rows_after = out->rows.rows.size();
  EXPECT_EQ(rows_before, rows_after);
  fs::remove_all(dir);
}

// The phase timers in ApplyOutcome cover disjoint stretches of the
// commit, so they must fit inside the wall time of the call.
TEST(ApplyGroupTest, PhaseTimersFitInsideTheGroupWallTime) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("sqopt_group_timers_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  Engine engine = OpenLoadedEngine();
  ASSERT_OK(engine.Save(dir));  // attaches the WAL
  std::vector<MutationBatch> group;
  for (int i = 0; i < 4; ++i) {
    group.push_back(ValidRatingUpdate(engine, i, i));
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(group);
  const uint64_t wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LE(r->clone_micros + r->apply_micros + r->stats_micros +
                  r->release_micros + r->wal_micros,
              wall_micros);
    EXPECT_LE(r->fsync_micros, r->wal_micros);
  }
  fs::remove_all(dir);
}

// The contention leg the TSan job leans on: many threads race their
// Apply calls into the group-commit queue; every write must commit,
// versions must be dense, and the engine must stay queryable
// throughout.
TEST(ApplyGroupTest, ConcurrentAppliesAllCommitWithDenseVersions) {
  Engine engine = OpenLoadedEngine();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;

  std::atomic<int> failures{0};
  std::atomic<uint64_t> grouped_commits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t row = (t * kPerThread + i) %
                            static_cast<int64_t>(kSpec.class_cardinality);
        auto result = engine.Apply(ValidRatingUpdate(engine, row, t + i));
        if (!result.ok()) {
          ++failures;
        } else if (result->group_size > 1) {
          ++grouped_commits;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.data_version(),
            1u + static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(engine.stats().mutation_batches_applied,
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Not asserted (scheduling-dependent), but reported: how many
  // commits actually shared a group on this run.
  RecordProperty("grouped_commits",
                 static_cast<int>(grouped_commits.load()));
  auto out = engine.Execute(kRatingQuery);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

// Monotonically increasing keys (ids, timestamps) land beyond the
// collected max on every insert. The commit path must absorb them by
// widening the histogram and bumping min/max and the distinct count,
// not by recollecting the attribute over the whole extent.
TEST(ApplyGroupTest, IncreasingKeysPatchStatisticsWithoutRecollecting) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  const ClassId vehicle = schema.FindClass("vehicle");
  const AttrRef vehicle_no =
      schema.ResolveQualified("vehicle.vehicleNo").value();
  const AttrStatsData before = *engine.database_stats()->AttrStatsFor(
      vehicle_no);
  ASSERT_FALSE(before.histogram.empty());
  constexpr int kInserts = 500;
  for (int i = 0; i < kInserts; ++i) {
    ASSERT_OK_AND_ASSIGN(Object obj,
                         MakeSegmentObject(schema, vehicle, /*segment=*/1,
                                           /*ordinal=*/1000000 + i));
    MutationBatch batch;
    batch.Insert(vehicle, std::move(obj));
    ASSERT_OK(engine.Apply(batch).status());
  }
  EXPECT_EQ(engine.stats().stats_recollections, 0u);
  const AttrStatsData* after =
      engine.database_stats()->AttrStatsFor(vehicle_no);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->distinct_values, before.distinct_values + kInserts);
  EXPECT_EQ(after->histogram.total(), before.histogram.total() + kInserts);
  EXPECT_EQ(after->max, engine.store()->MinMax(vehicle_no).second);
  EXPECT_EQ(after->distinct_values,
            engine.store()->DistinctValues(vehicle_no));
}

// Where there is nothing to patch — no histogram, as for an attribute
// whose loaded rows all hold one value — the commit path collects that
// attribute in full, even when the drift stays below kReplanThreshold.
TEST(ApplyGroupTest, FirstValuesOfAnUncollectedAttributeRecollect) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  ASSERT_OK(opened.status());
  Engine engine = std::move(opened).value();
  const Schema& schema = engine.schema();
  const ClassId vehicle = schema.FindClass("vehicle");
  const AttrRef vclass = schema.ResolveQualified("vehicle.vclass").value();
  // Ten segment-1 vehicles: vehicle.vclass is 3 on every row (and
  // capacity 30), so neither attribute has a histogram after Load.
  auto store = std::make_unique<ObjectStore>(&schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Object obj,
                         MakeSegmentObject(schema, vehicle, 1, i));
    ASSERT_OK(store->Insert(vehicle, std::move(obj)).status());
  }
  ASSERT_OK(engine.Load(DataSource::FromStore(std::move(store))));
  ASSERT_TRUE(engine.database_stats()->AttrStatsFor(vclass)->histogram.empty());

  // One segment-0 vehicle (vclass 4): drift 1/10, below the threshold.
  MutationBatch batch;
  ASSERT_OK_AND_ASSIGN(Object obj, MakeSegmentObject(schema, vehicle, 0, 10));
  batch.Insert(vehicle, std::move(obj));
  ASSERT_OK_AND_ASSIGN(ApplyOutcome applied, engine.Apply(batch));
  EXPECT_LT(applied.stats_drift, kReplanThreshold);
  EXPECT_FALSE(applied.plan_cache_invalidated);
  // vclass and capacity; vehicleNo widens its histogram instead.
  EXPECT_EQ(engine.stats().stats_recollections, 2u);
  const AttrStatsData* stats = engine.database_stats()->AttrStatsFor(vclass);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->distinct_values, 2);
  EXPECT_EQ(stats->histogram.total(), 11);
}

}  // namespace
}  // namespace sqopt
