// Tests for concurrent serving: the worker pool, and — run under
// -fsanitize=thread — many caller threads running Execute against one
// shared engine while Load reloads or Apply commits replace its data.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/worker_pool.h"
#include "tests/test_util.h"

namespace sqopt {
namespace {

constexpr uint64_t kSeed = 20260728;
const DbSpec kSpec{"serve_test", 104, 154};

const char* kJoinQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\", "
    "supplier.region = \"west\"} {supplies} {supplier, cargo}";
const char* kSingleClassQuery =
    "{cargo.code} {} {cargo.desc = \"frozen food\"} {} {cargo}";

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

TEST(WorkerPoolTest, ResolveThreadsClampsAndPassesThrough) {
  EXPECT_EQ(WorkerPool::ResolveThreads(3), 3);
  EXPECT_GE(WorkerPool::ResolveThreads(0), 1);
  EXPECT_LE(WorkerPool::ResolveThreads(0), 16);
}

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  int remaining = 100;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  EXPECT_EQ(counter.load(), 100);
}

// The end-to-end concurrency claim, checked under TSan in CI: Execute
// and ExecuteIfCached from several caller threads and data reloads all
// run against one engine at once. Rows must always be internally consistent — every
// query sees either the old or the new store, never a mix, and never a
// use-after-free of a dropped store.
TEST(ServeConcurrencyTest, ExecuteAndReloadRaceFree) {
  Engine engine = OpenLoadedEngine();
  // The two stores differ in size, so row counts identify which store
  // served a query.
  ASSERT_OK_AND_ASSIGN(QueryOutcome store_a,
                       engine.Execute(kSingleClassQuery));
  ASSERT_OK(engine.Load(
      DataSource::Generated(DbSpec{"other", 52, 77}, kSeed + 1)));
  ASSERT_OK_AND_ASSIGN(QueryOutcome store_b,
                       engine.Execute(kSingleClassQuery));
  const size_t rows_a = store_a.rows.rows.size();
  const size_t rows_b = store_b.rows.rows.size();
  ASSERT_NE(rows_a, rows_b);

  std::atomic<int> failures{0};
  auto check_rows = [&](size_t n) {
    if (n != rows_a && n != rows_b) failures.fetch_add(1);
  };

  constexpr int kIterations = 10;
  std::vector<std::thread> threads;
  // Two ad-hoc threads.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations * 3; ++i) {
        auto out = engine.Execute(kSingleClassQuery);
        if (!out.ok()) {
          failures.fetch_add(1);
        } else {
          check_rows(out->rows.rows.size());
        }
      }
    });
  }
  // Two six-query lists, each replayed by two threads that split it in
  // halves: four concurrent list readers.
  const std::vector<std::string> queries(6, kSingleClassQuery);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, half = t % 2] {
      const size_t begin = half * queries.size() / 2;
      const size_t end = (half + 1) * queries.size() / 2;
      for (int i = 0; i < kIterations; ++i) {
        for (size_t slot = begin; slot < end; ++slot) {
          auto out = engine.Execute(queries[slot]);
          if (!out.ok()) {
            failures.fetch_add(1);
          } else {
            check_rows(out->rows.rows.size());
          }
        }
      }
    });
  }
  // Two threads taking the server's inline path on the same cache
  // entry: each answer is "not cached" or a whole answer from one store.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations * 3; ++i) {
        auto answer = engine.ExecuteIfCached(kSingleClassQuery);
        if (!answer.ok()) {
          failures.fetch_add(1);
        } else if (answer->cached) {
          check_rows(answer->rows.size());
        }
      }
    });
  }
  // One reloader thread alternating between the two databases.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      Status s = engine.Load(
          i % 2 == 0
              ? DataSource::Generated(kSpec, kSeed)
              : DataSource::Generated(DbSpec{"other", 52, 77}, kSeed + 1));
      if (!s.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles the cache serves the final store only.
  ASSERT_OK_AND_ASSIGN(QueryOutcome final_cold,
                       engine.Execute(kSingleClassQuery));
  ASSERT_OK_AND_ASSIGN(QueryOutcome final_warm,
                       engine.Execute(kSingleClassQuery));
  EXPECT_TRUE(final_warm.rows.SameRows(final_cold.rows));
}

// The write-path concurrency claim, checked under TSan in CI: Execute
// from several caller threads and Apply commits all run against one
// engine at once, and no reader may EVER observe a half-applied batch.
// The writer flips one cargo row between two (desc, weight) states with
// both attributes in a single batch; the torn combinations can only
// exist if snapshot publication is non-atomic, so the detector queries
// must return zero rows on every snapshot.
TEST(ServeConcurrencyTest, ApplyNeverExposesHalfAppliedBatches) {
  Engine engine = OpenLoadedEngine();
  const Schema& schema = engine.schema();
  const ClassId cargo = schema.FindClass("cargo");
  const AttrRef desc = schema.ResolveQualified("cargo.desc").value();
  const AttrRef weight = schema.ResolveQualified("cargo.weight").value();

  // Cargo row 1 is segment 1 ("fuel", weight 41..100, quantity >= 500):
  // none of the flip values below touch any constraint (weights stay
  // >= 41 for i6; no clause mentions "fuel" or "mystery box").
  auto flip = [&](const char* d, int64_t w) {
    MutationBatch batch;
    batch.Update(cargo, 1, desc.attr_id, Value::String(d));
    batch.Update(cargo, 1, weight.attr_id, Value::Int(w));
    return engine.Apply(batch);
  };
  ASSERT_OK(flip("fuel", 60).status());  // pin a known initial state

  // A torn read would pair the NEW desc with the OLD weight or vice
  // versa.
  const char* kTornA =
      "{cargo.code} {} {cargo.desc = \"mystery box\", cargo.weight = 60} "
      "{} {cargo}";
  const char* kTornB =
      "{cargo.code} {} {cargo.desc = \"fuel\", cargo.weight = 90} "
      "{} {cargo}";

  std::atomic<int> failures{0};
  std::atomic<int> torn{0};
  constexpr int kIterations = 30;
  std::vector<std::thread> threads;
  // Two detector threads.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations * 4; ++i) {
        for (const char* q : {kTornA, kTornB}) {
          auto out = engine.Execute(q);
          if (!out.ok()) {
            failures.fetch_add(1);
          } else if (!out->rows.rows.empty()) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  // Real traffic mixed in: the detectors interleaved with a
  // single-class and a join query, the list split in halves between two
  // threads so each pairs one real query with one detector.
  const std::vector<std::string> queries = {kSingleClassQuery, kTornA,
                                            kJoinQuery, kTornB};
  for (size_t half = 0; half < 2; ++half) {
    threads.emplace_back([&, half] {
      for (int i = 0; i < kIterations; ++i) {
        for (size_t slot = 2 * half; slot < 2 * half + 2; ++slot) {
          auto out = engine.Execute(queries[slot]);
          if (!out.ok()) {
            failures.fetch_add(1);
          } else if ((slot == 1 || slot == 3) && !out->rows.rows.empty()) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  // One writer thread flipping the two-attribute state.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations * 2; ++i) {
      auto out = i % 2 == 0 ? flip("mystery box", 90) : flip("fuel", 60);
      if (!out.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0) << "a reader observed a half-applied batch";

  // Small two-row batches never cross the replan threshold on a
  // 104-row class, so this mixed workload must have been served from
  // the cache while the snapshots churned underneath it.
  EXPECT_GT(engine.plan_cache_stats().hits, 0u);
  EXPECT_GT(engine.stats().mutation_batches_applied,
            static_cast<uint64_t>(kIterations));
}

}  // namespace
}  // namespace sqopt
